package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/sim"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's metric surface; the smoke test checks that they
// match BENCHMARK.json and that every run prints all of them.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"live_bytes_per_rank", "B"},
	{"hang_detect_rate", "share"},
	{"cause_accuracy", "share"},
}

func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, b := range profileBuckets() {
		defs = append(defs, metricDef{b + ".cpu_share", "share"})
	}
	return append(defs, []metricDef{
		{"sim.handoff_ns", "ns"},
		{"sim.events", "count"},
		{"sim.sleeps", "count"},
		{"sim.spawns", "count"},
		{"sim.windows", "count"},
		{"sim.horizon_stalls", "count"},
		{"core.samples", "count"},
		{"core.traces", "count"},
		{"core.suspicions", "count"},
		{"core.doublings", "count"},
		{"waitfor.diagnoses", "count"},
		{"gc.alloc_bytes_per_run", "B"},
		{"gc.cycles_per_run", "count"},
		{"sweep.run_ms_p50", "ms"},
		{"sweep.run_ms_p90", "ms"},
		{"sweep.overhead_share", "share"},
		{"service.submit_us_p50", "us"},
		{"service.submit_us_p90", "us"},
		{"service.run_ms_p50", "ms"},
		{"service.run_ms_p90", "ms"},
		{"service.ingest_wait_ms_p50", "ms"},
		{"service.ingest_wait_ms_p90", "ms"},
		{"service.journal_append_us_p50", "us"},
		{"service.journal_append_us_p90", "us"},
		{"service.sink_append_us_p50", "us"},
		{"service.sink_append_us_p90", "us"},
		{"service.feed_us_p90", "us"},
		{"service.verdicts_page_us_p90", "us"},
		{"service.batches_flushed", "count"},
		{"service.samples_ingested", "count"},
		{"service.generator_lag_p90_ms", "ms"},
		{"trace.overhead_share", "share"},
		{"false_positive_rate", "share"},
		{"detect_delay_p50_sim_s", "s"},
		{"failed_share", "share"},
	}...)
}

// addZeroLayers reports 0 for every per-layer metric the workload does
// not exercise, so every traced run prints the full set.
func addZeroLayers(out *outcome) {
	for _, d := range perLayerDefs() {
		if _, ok := out.perLayer[d.name]; !ok {
			out.layer(d.name, d.unit, 0)
		}
	}
}

// addProfile reports the CPU profile's per-layer shares.
func addProfile(out *outcome, prof []byte) error {
	shares, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for b, v := range shares {
		out.layer(b+".cpu_share", "share", v)
	}
	return nil
}

// addSimStats reports the simulated statistics of one pass over a
// seed's runs. They depend only on the seed, so they repeat exactly.
func addSimStats(out *outcome, rs []experiment.RunResult) {
	m := experiment.Aggregate(rs)
	// A pass with nothing to detect or diagnose counts as fully
	// accurate, the convention experiment.Aggregate uses for ACh.
	causeAcc := m.CauseAccuracy
	if m.CauseChecked == 0 {
		causeAcc = 1
	}
	out.e2e("hang_detect_rate", "share", m.Accuracy)
	out.e2e("cause_accuracy", "share", causeAcc)
	out.layer("false_positive_rate", "share", m.FPRate)
	var delays []float64
	for _, r := range rs {
		if r.Detected {
			delays = append(delays, r.Delay.Seconds())
		}
	}
	delayP50 := quantile(delays, 0.5)
	out.layer("detect_delay_p50_sim_s", "s", delayP50)

	counters := []struct{ metric, counter string }{
		{"sim.events", sim.CtrEvents},
		{"sim.sleeps", sim.CtrSleeps},
		{"sim.spawns", sim.CtrSpawns},
		{"sim.windows", sim.CtrWindows},
		{"sim.horizon_stalls", sim.CtrHorizonStalls},
		{"core.samples", core.CtrSamples},
		{"core.traces", core.CtrTraces},
		{"core.suspicions", core.CtrSuspicions},
		{"core.doublings", core.CtrDoublings},
	}
	var diagnoses int
	var events uint64
	var ds []string
	for _, r := range rs {
		if r.Diagnosis != nil {
			diagnoses++
		}
		events += r.Events
		ds = append(ds, fmt.Sprintf("%s|%s|%d=%s", r.Spec, r.FaultKind, r.Seed,
			digest(r.Detected, r.Delay, r.Cause, faultyRanks(&r), r.Events)))
	}
	for _, c := range counters {
		var sum int64
		for _, r := range rs {
			sum += r.Metrics.Counter(c.counter)
		}
		out.layer(c.metric, "count", float64(sum))
		out.exact[c.metric] = sum
	}
	out.layer("waitfor.diagnoses", "count", float64(diagnoses))
	out.exact["waitfor.diagnoses"] = diagnoses
	out.exact["runs"] = len(rs)
	out.exact["run_events"] = events
	out.exact["hang_detect_rate"] = m.Accuracy
	out.exact["cause_accuracy"] = causeAcc
	out.exact["false_positive_rate"] = m.FPRate
	out.exact["detect_delay_p50_sim_s"] = delayP50
	sort.Strings(ds)
	h := fnv.New64a()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	out.exact["verdict_digest"] = fmt.Sprintf("%016x", h.Sum64())
}

// workerCount is every workload's worker count: one per processor Go
// may run on.
func workerCount() int { return runtime.GOMAXPROCS(0) }
