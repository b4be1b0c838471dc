package main

import (
	"fmt"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/noise"
	"parastack/internal/workload"
)

// scale-clean-16k: a clean, monitored CG-style run at 16384 ranks —
// the shape of the BENCH_scale.json rows: 20 ms compute and 8 KB halos
// per iteration — through one reused experiment.Runner on the windowed
// executor with one chain worker per processor. Every run repeats the
// seed's configuration, so the verdict digest must repeat too.

type scaleBench struct {
	opts    options
	workers int
	rc      experiment.RunConfig
	rn      *experiment.Runner
	tr      *tracer
	want    digests
	first   *experiment.RunResult
}

func scaleConfig(s sizes, seed int64, workers int) experiment.RunConfig {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "scale", Procs: s.scaleRanks}
	p.Iters = s.scaleIters
	p.Compute = 20 * time.Millisecond
	p.HaloBytes = 8 << 10
	return experiment.RunConfig{
		Params:   p,
		Platform: noise.Tardis(),
		PPN:      8,
		Seed:     1 + seed*1000,
		Monitor:  &core.Config{},
		Parallel: workers,
	}
}

// setup builds the engine and the world: a zero-iteration run on a
// fresh runner at the measured size.
func (b *scaleBench) setup() (func(), error) {
	b.rc = scaleConfig(b.opts.sizes, b.opts.seed, b.workers)
	warm := b.rc
	warm.Params.Iters = 0
	warm.Monitor = nil
	b.rn = experiment.NewRunner()
	b.rn.Run(warm)
	return func() { b.rn = nil }, nil
}

type scalePass struct {
	runs   int
	runMS  []float64
	evRate []float64
	mem    memDelta
}

// measure repeats the run for about d.
func (b *scaleBench) measure(out *outcome, d time.Duration) scalePass {
	var ps scalePass
	before := memNow()
	deadline := time.Now().Add(d)
	var last time.Duration
	for another(ps.runs, deadline, last) {
		start := time.Now()
		res := b.rn.Run(b.rc)
		end := time.Now()
		last = end.Sub(start)
		b.tr.record("scale.run", fmt.Sprintf("seed=%d", b.rc.Seed), start, end)
		out.attempted++
		ps.runs++
		dg := digest(res.Detected, res.Delay, res.Cause, faultyRanks(&res), res.Events)
		if want, same := b.want.check("scale", dg); !same {
			out.fail(1, true, "scale run: verdict %s, first run gave %s", dg, want)
			continue
		}
		if !res.Completed || res.Report != nil {
			out.fail(1, true, "scale run: clean run completed=%t with report %v", res.Completed, res.Report != nil)
			continue
		}
		if b.first == nil {
			b.first = &res
		}
		el := end.Sub(start)
		ps.runMS = append(ps.runMS, float64(el.Nanoseconds())/1e6)
		ps.evRate = append(ps.evRate, float64(res.Events)/el.Seconds())
	}
	ps.mem = memSince(before)
	return ps
}

func runScale(opts options) (*outcome, error) {
	b := &scaleBench{opts: opts, workers: workerCount(), tr: newTracer(), want: digests{}}
	out := newOutcome(b.workers)
	setupS, teardown, err := setupTimes(opts.sizes.setupReps, b.setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	live := liveHeap()

	if !opts.trace {
		ps := b.measure(out, opts.seconds)
		if b.first == nil {
			return nil, fmt.Errorf("no scale run completed cleanly")
		}
		addSimStats(out, []experiment.RunResult{*b.first})
		out.e2e("setup_s", "s", setupS)
		out.e2e("runs_per_s", "1/s", 1000/quantile(ps.runMS, 0.5))
		out.e2e("sim_events_per_s", "1/s", quantile(ps.evRate, 0.5))
		out.e2e("job_latency_p50_ms", "ms", quantile(ps.runMS, 0.5))
		out.e2e("job_latency_p90_ms", "ms", quantile(ps.runMS, 0.9))
		out.e2e("live_bytes_per_rank", "B", float64(live)/float64(opts.sizes.scaleRanks))
		return out, nil
	}

	handoff := handoffNS(opts.sizes.handoffTrips)
	half := opts.seconds / 2
	plain := b.measure(out, half)
	var traced scalePass
	prof, err := tracedPass(b.tr, "scale-traced", func() { traced = b.measure(out, half) })
	if err != nil {
		return nil, err
	}
	if b.first == nil {
		return nil, fmt.Errorf("no scale run completed cleanly")
	}
	addSimStats(out, []experiment.RunResult{*b.first})
	if err := addProfile(out, prof); err != nil {
		return nil, err
	}
	addZeroLayers(out)
	out.layer("sim.handoff_ns", "ns", handoff)
	out.layer("gc.alloc_bytes_per_run", "B", float64(plain.mem.allocBytes)/float64(plain.runs))
	out.layer("gc.cycles_per_run", "count", float64(plain.mem.gcCycles)/float64(plain.runs))
	out.layer("trace.overhead_share", "share", 1-quantile(plain.runMS, 0.5)/quantile(traced.runMS, 0.5))
	return out, b.tr.write(opts.workDir, opts.workload, opts.seed)
}
