package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"parastack/internal/experiment"
	"parastack/internal/results"
)

// Orchestrator drives ad-hoc campaigns (rather than a declared grid
// Spec) through the sweep machinery: bounded workers, panic
// recovery/retry, a durable results log, and resume. It exists so the
// paper's table generators — which build their RunConfigs imperatively
// — can run as one resumable command (cmd/pssweep -grid paper):
// Orchestrator.Campaign is a drop-in replacement for
// experiment.Campaign that replays completed runs from the log and
// executes only the missing ones.
//
// Campaign cells are keyed by a fingerprint of the run configuration
// (workload calibration, platform profile, detector settings, seed) so
// that two campaigns over the same configuration share results while
// campaigns differing in any knob never collide.
type Orchestrator struct {
	ctx   context.Context
	opts  Options
	sink  results.Sink
	owned bool // the orchestrator opened the sink and must close it
	prior map[string]Record
	pool  *pool
}

// NewOrchestrator opens (or resumes) the results destination — the
// JSONL log named by opts.Out, or opts.Sink (a ledger) when set — and
// returns an orchestrator ready to serve Campaign calls.
func NewOrchestrator(ctx context.Context, opts Options) (*Orchestrator, error) {
	opts = opts.withDefaults()
	sink, owned, prior, err := opts.openSink()
	if err != nil {
		return nil, err
	}
	return &Orchestrator{ctx: ctx, opts: opts, sink: sink, owned: owned, prior: prior, pool: newPool(opts, sink)}, nil
}

// Campaign runs n seeds (seed0, seed0+1, …) of base and returns results
// in seed order — the experiment.Campaign contract, plus durability:
// completed runs are replayed from the log, fresh ones are executed
// under panic recovery and streamed to it. Failed cells yield a
// placeholder result (identity fields only) so positions stay aligned.
// After cancellation (or an exhausted MaxRuns budget) remaining runs
// are simply missing placeholders too; check Interrupted before
// trusting downstream aggregation.
func (o *Orchestrator) Campaign(base experiment.RunConfig, n int, seed0 int64) []experiment.RunResult {
	group := Fingerprint(base)
	out := make([]experiment.RunResult, n)
	var units []unit
	for i := 0; i < n; i++ {
		seed := seed0 + int64(i)
		key := fmt.Sprintf("%s|seed=%d", group, seed)
		if r, ok := o.prior[key]; ok {
			if r.Result != nil {
				out[i] = *r.Result
			} else {
				out[i] = placeholderResult(base, seed)
			}
			o.pool.noteSkipped(r)
			continue
		}
		rc := base
		rc.Seed = seed
		out[i] = placeholderResult(base, seed) // overwritten on success
		units = append(units, unit{key: key, index: i, rc: rc})
	}
	o.pool.run(o.ctx, units, func(r Record) {
		if r.Status == StatusOK && r.Result != nil {
			out[r.Index] = *r.Result
		}
	})
	return out
}

// Interrupted reports whether the orchestrator stopped early — context
// cancellation or MaxRuns — so callers know the last Campaign results
// may be partial and the sweep should be resumed.
func (o *Orchestrator) Interrupted() bool {
	if o.ctx.Err() != nil {
		return true
	}
	o.pool.mu.Lock()
	defer o.pool.mu.Unlock()
	return o.pool.halted
}

// Stats returns the orchestrator's cumulative progress so far.
func (o *Orchestrator) Stats() Progress {
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return Progress{
		Total: p.total, Done: p.skipped + p.executed,
		Executed: p.executed, Skipped: p.skipped,
		Failed: p.failed, Retried: p.retried,
	}
}

// Err surfaces a results-log write failure, if any occurred.
func (o *Orchestrator) Err() error {
	o.pool.mu.Lock()
	defer o.pool.mu.Unlock()
	return o.pool.logErr
}

// Close flushes and closes the results destination the orchestrator
// opened; a caller-provided Options.Sink stays open (its owner closes
// it — and for a ledger that close is what commits the final batch).
func (o *Orchestrator) Close() error {
	if o.sink == nil || !o.owned {
		return nil
	}
	return o.sink.Close()
}

// placeholderResult carries a run's identity with no outcome, standing
// in for failed or never-executed cells so campaign slices keep their
// seed-order alignment.
func placeholderResult(rc experiment.RunConfig, seed int64) experiment.RunResult {
	return experiment.RunResult{
		Spec:      rc.Params.Spec,
		Platform:  rc.Platform.Name,
		Seed:      seed,
		FaultKind: rc.FaultKind,
	}
}

// Fingerprint derives the stable campaign identity of a run
// configuration: every knob that can change a run's outcome
// participates (workload calibration, platform profile, PPN, fault
// kind and timing, detector configurations, wall limit, probes), while
// observability attachments (Trace, Stats, recorders) and callbacks —
// which never perturb a run — do not. The human-readable prefix keeps
// logs greppable; the hash keeps the key collision-free.
func Fingerprint(rc experiment.RunConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v|%+v|ppn=%d|fault=%v|minft=%v|wall=%v|probe=%v|hist=%t",
		rc.Params, rc.Platform, rc.PPN, rc.FaultKind, rc.MinFaultTime,
		rc.WallLimit, rc.ProbeSout, rc.KeepHistory)
	if m := rc.Monitor; m != nil {
		fmt.Fprintf(&b, "|mon=%d,%v,%g,%d,%g,%d,%d,%v,%d,%v,%d,%v,%t,%t,%t,%t",
			m.C, m.InitialInterval, m.Alpha, m.RunsBatch, m.RunsAlpha,
			m.SwitchEvery, m.NumSets, m.TraceCost, m.MaxHistory, m.SlowdownGap,
			m.FaultScans, m.FaultScanGap,
			m.DisableAdaptation, m.DisableSetSwitch, m.DisableSlowdownFilter,
			m.KeepHistory)
	} else {
		b.WriteString("|mon=nil")
	}
	if t := rc.Timeout; t != nil {
		fmt.Fprintf(&b, "|tod=%d,%v,%d,%g", t.C, t.Interval, t.K, t.Threshold)
	} else {
		b.WriteString("|tod=nil")
	}
	fmt.Fprintf(&b, "|wd=%v", rc.Watchdog)
	if rc.Chaos != nil && rc.Chaos.Enabled() {
		// Appended only when chaos is actually on, so every chaos-free
		// configuration keeps the fingerprint it had before the chaos
		// axis existed and old logs stay resumable.
		fmt.Fprintf(&b, "|chaos=%+v", *rc.Chaos)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("campaign:%s@%s#%016x", rc.Params.Spec, rc.Platform.Name, h.Sum64())
}
