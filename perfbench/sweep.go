package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/sweep"
	"parastack/internal/workload"
)

// sweep-faulty-64: closed-loop sweep.Run passes over one grid — {CG,
// LU}/D/64 × tardis × {none, computation, node, deadlock} × seeds —
// with ParaStack attached, two workers and a JSONL log. Every pass
// repeats the grid the seed chose, so each cell's verdict digest must
// match across passes.

type sweepBench struct {
	opts    options
	workers int
	spec    sweep.Spec
	cells   int
	logPath string
	tr      *tracer
	pool    *runnerPool
	want    digests

	// first is the first complete pass's records, the source of the
	// simulated statistics.
	first []sweep.Record
}

// sweepSpec derives the grid from the workload seed: the seeds of the
// simulated runs start at a seed-dependent offset.
func sweepSpec(seed int64, seeds int) sweep.Spec {
	return sweep.Spec{
		Workloads: []workload.Spec{
			{Name: "CG", Class: "D", Procs: 64},
			{Name: "LU", Class: "D", Procs: 64},
		},
		Platforms: []string{"tardis"},
		Faults:    []string{"none", "computation", "node", "deadlock"},
		Seeds:     seeds,
		Seed0:     1 + seed*1000,
		Detector:  sweep.DetectorSpec{Monitor: true},
	}
}

// setup expands and validates the grid, creates the log, and warms
// every worker's runner.
func (b *sweepBench) setup() (func(), error) {
	spec := sweepSpec(b.opts.seed, b.opts.sizes.sweepSeeds)
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if _, err := spec.RunConfig(c); err != nil {
			return nil, err
		}
	}
	// Each runner is warmed with one full computation-fault run per
	// benchmark, which grows its pools to their steady-state size. The
	// warm-up cells do not depend on the workload seed, so set-up does
	// the same work on every invocation.
	var warm []experiment.RunConfig
	for _, w := range spec.Workloads {
		rc, err := spec.RunConfig(sweep.Cell{Workload: w, Platform: spec.Platforms[0], Fault: fault.ComputationHang, Seed: 1})
		if err != nil {
			return nil, err
		}
		warm = append(warm, rc)
	}
	dir, err := os.MkdirTemp(b.opts.workDir, "sweep-")
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "sweep.jsonl")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	pool := newRunnerPool(b.workers, b.tr, "sweep.run")
	pool.warm(warm...)
	b.spec, b.cells, b.logPath, b.pool = spec, len(cells), logPath, pool
	return func() { os.RemoveAll(dir) }, nil
}

// sweepPass is what one measured phase saw.
type sweepPass struct {
	runs   int
	rate   []float64 // runs per second, per sweep pass
	evRate []float64 // simulated events per second, per sweep pass
	passMS []float64
	mem    memDelta
}

// measure repeats sweep passes over the grid for about d.
func (b *sweepBench) measure(out *outcome, d time.Duration) sweepPass {
	var ps sweepPass
	before := memNow()
	deadline := time.Now().Add(d)
	var last time.Duration
	for try := 0; another(try, deadline, last); try++ {
		start := time.Now()
		res, err := sweep.Run(context.Background(), b.spec, sweep.Options{
			Workers: b.workers,
			Out:     b.logPath,
			Run:     b.pool.run,
		})
		el := time.Since(start)
		last = el
		out.attempted += b.cells
		if err != nil {
			out.fail(b.cells, false, "sweep pass: %v", err)
			continue
		}
		var events uint64
		ok := 0
		for _, r := range res.Records {
			if r.Status != sweep.StatusOK || r.Result == nil {
				out.fail(1, false, "cell %s: %s after %d attempts", r.Key, r.Error, r.Attempts)
				continue
			}
			rr := r.Result
			d := digest(rr.Detected, rr.Delay, rr.Cause, faultyRanks(rr), rr.Events)
			if want, same := b.want.check(r.Key, d); !same {
				out.fail(1, true, "cell %s: verdict %s, first pass gave %s", r.Key, d, want)
				continue
			}
			events += rr.Events
			ok++
		}
		if missing := b.cells - len(res.Records); missing > 0 {
			out.fail(1, false, "sweep pass left %d of %d cells without a record", missing, b.cells)
		}
		if b.first == nil && ok == b.cells {
			b.first = res.Records
		}
		ps.runs += ok
		ps.passMS = append(ps.passMS, float64(el.Nanoseconds())/1e6)
		ps.rate = append(ps.rate, float64(ok)/el.Seconds())
		ps.evRate = append(ps.evRate, float64(events)/el.Seconds())
	}
	ps.mem = memSince(before)
	return ps
}

func faultyRanks(r *experiment.RunResult) []int {
	if r.Report == nil {
		return nil
	}
	return r.Report.FaultyRanks
}

// checkLog re-reads the durable log of the last pass: one OK record per
// cell, each matching the verdict digest the passes agreed on.
func (b *sweepBench) checkLog(out *outcome) {
	recs, err := sweep.Load(b.logPath)
	if err != nil {
		out.fail(1, true, "sweep log: %v", err)
		return
	}
	keys := map[string]bool{}
	for _, r := range recs {
		keys[r.Key] = true
		if r.Result == nil {
			continue
		}
		d := digest(r.Result.Detected, r.Result.Delay, r.Result.Cause, faultyRanks(r.Result), r.Result.Events)
		if want, same := b.want.check(r.Key, d); !same {
			out.fail(1, true, "sweep log cell %s: verdict %s, passes gave %s", r.Key, d, want)
		}
	}
	if len(keys) != b.cells {
		out.fail(1, true, "sweep log holds %d cells, grid has %d", len(keys), b.cells)
	}
}

func runSweep(opts options) (*outcome, error) {
	b := &sweepBench{opts: opts, workers: workerCount(), tr: newTracer(), want: digests{}}
	out := newOutcome(b.workers)
	setupS, teardown, err := setupTimes(opts.sizes.setupReps, b.setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	live := liveHeap()

	if !opts.trace {
		ps := b.measure(out, opts.seconds)
		b.checkLog(out)
		if err := b.simStats(out); err != nil {
			return nil, err
		}
		out.e2e("setup_s", "s", setupS)
		out.e2e("runs_per_s", "1/s", quantile(ps.rate, 0.5))
		out.e2e("sim_events_per_s", "1/s", quantile(ps.evRate, 0.5))
		out.e2e("job_latency_p50_ms", "ms", quantile(ps.passMS, 0.5))
		out.e2e("job_latency_p90_ms", "ms", quantile(ps.passMS, 0.9))
		out.e2e("live_bytes_per_rank", "B", float64(live)/float64(b.workers*64))
		return out, nil
	}

	handoff := handoffNS(opts.sizes.handoffTrips)
	half := opts.seconds / 2
	plain := b.measure(out, half)
	var traced sweepPass
	prof, err := tracedPass(b.tr, "sweep-traced", func() { traced = b.measure(out, half) })
	if err != nil {
		return nil, err
	}
	b.checkLog(out)
	if err := b.simStats(out); err != nil {
		return nil, err
	}
	if err := addProfile(out, prof); err != nil {
		return nil, err
	}
	addZeroLayers(out)
	out.layer("sim.handoff_ns", "ns", handoff)
	out.layer("gc.alloc_bytes_per_run", "B", float64(plain.mem.allocBytes)/float64(max(plain.runs, 1)))
	out.layer("gc.cycles_per_run", "count", float64(plain.mem.gcCycles)/float64(max(plain.runs, 1)))
	out.layer("trace.overhead_share", "share", 1-quantile(traced.rate, 0.5)/quantile(plain.rate, 0.5))
	runMS := b.tr.durations("sweep.run")
	out.layer("sweep.run_ms_p50", "ms", quantile(runMS, 0.5))
	out.layer("sweep.run_ms_p90", "ms", quantile(runMS, 0.9))
	var inRun, workerTime float64
	for _, ms := range runMS {
		inRun += ms
	}
	for _, ms := range traced.passMS {
		workerTime += ms * float64(b.workers)
	}
	out.layer("sweep.overhead_share", "share", 1-inRun/workerTime)
	return out, b.tr.write(opts.workDir, opts.workload, opts.seed)
}

// simStats derives the simulated statistics and exact counts from the
// first complete pass; they depend only on the seed.
func (b *sweepBench) simStats(out *outcome) error {
	if b.first == nil {
		return fmt.Errorf("no sweep pass completed every cell")
	}
	var rs []experiment.RunResult
	for _, r := range b.first {
		rs = append(rs, *r.Result)
	}
	addSimStats(out, rs)
	return nil
}
