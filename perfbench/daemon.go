package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/ledger"
	"parastack/internal/results"
	"parastack/internal/service"
	"parastack/internal/sweep"
	"parastack/internal/workload"
)

// daemon-open-mixed: an in-process service.Service with a JSONL
// admission journal and a Merkle ledger on disk. CG/D/64 jobs cycling
// computation, deadlock and none arrive open-loop on a jittered
// schedule drawn from the seed; one stream job is fed a healthy Scrout
// signal at a fixed rate whatever the backlog; and a reader pages
// through the verdicts. Jobs cycle through a fixed set of cells, so
// each cell's verdict must repeat, and match experiment.Run on the
// same cell.

const (
	streamJobID = "stream"
	// waitLimit bounds the wait for the last verdicts of a phase.
	waitLimit = 60 * time.Second
)

type daemonBench struct {
	opts    options
	workers int
	tr      *tracer
	cells   []service.JobSpec
	rng     *rand.Rand

	dir     string
	jlPath  string
	jl      *results.JSONL
	store   *ledger.DirStore
	led     *ledger.Ledger
	pool    *runnerPool
	svc     *service.Service
	drained bool

	// Guarded by mu: what the load generator, waiters, feeder and
	// reader saw.
	mu       sync.Mutex
	verdicts map[string]service.Verdict // job id → verdict from Wait
	jobCell  map[string]int             // job id → index into cells
	read     map[string]service.Verdict // job id → verdict from VerdictsPage
	lastSeq  int64
	samples  int64 // stream samples sent, accepted or not
	fedOK    int64 // stream samples the service accepted
}

// daemonCells is the fixed cell set the job stream cycles through.
func daemonCells(seed int64, n int) []service.JobSpec {
	faults := []string{"computation", "deadlock", "none"}
	cells := make([]service.JobSpec, n)
	for i := range cells {
		cells[i] = service.JobSpec{
			Bench: "CG", Class: "D", Procs: 64, Platform: "tardis",
			Fault: faults[i%len(faults)],
			Seed:  1 + seed*1000 + int64(i/len(faults)),
		}
	}
	return cells
}

// setup opens the journal and the ledger, warms every worker's
// runner, starts the service and admits the stream job.
func (b *daemonBench) setup() (func(), error) {
	dir, err := os.MkdirTemp(b.opts.workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	b.drained = false
	b.jlPath = filepath.Join(dir, "journal.jsonl")
	if b.jl, err = results.OpenJSONL(b.jlPath, 0); err != nil {
		b.teardown()
		return nil, err
	}
	if b.store, err = ledger.OpenDirStore(filepath.Join(dir, "ledger")); err != nil {
		b.teardown()
		return nil, err
	}
	if b.led, err = ledger.Open(b.store, ledger.Options{}); err != nil {
		b.teardown()
		return nil, err
	}
	b.pool = newRunnerPool(b.workers, b.tr, "service.run")
	// One full computation-fault run per runner grows its pools to
	// their steady-state size. The warm-up cell does not depend on the
	// workload seed, so set-up does the same work on every invocation.
	warmJob := b.cells[0]
	warmJob.Fault, warmJob.Seed = "computation", 1
	warm, err := cellConfig(warmJob)
	if err != nil {
		b.teardown()
		return nil, err
	}
	b.pool.warm(warm)
	b.svc = service.New(service.Config{
		Workers: b.workers,
		Journal: &timedSink{inner: b.jl, tr: b.tr, name: "service.journal_append"},
		Sink:    &timedSink{inner: b.led, tr: b.tr, name: "service.sink_append"},
		Run:     b.pool.run,
	})
	if err := b.svc.Submit(service.JobSpec{ID: streamJobID, Stream: true}); err != nil {
		b.teardown()
		return nil, fmt.Errorf("admit stream job: %w", err)
	}
	return b.teardown, nil
}

// drain shuts the service down; every admitted job then has a verdict.
func (b *daemonBench) drain() error {
	if b.drained || b.svc == nil {
		return nil
	}
	b.drained = true
	return b.svc.Close()
}

func (b *daemonBench) teardown() {
	b.drain()
	if b.led != nil {
		b.led.Close()
	}
	if b.jl != nil {
		b.jl.Close()
	}
	if b.store != nil {
		b.store.Close()
	}
	os.RemoveAll(b.dir)
	b.svc, b.led, b.jl, b.store = nil, nil, nil, nil
}

// cellConfig materializes a job's cell the way a grid sweep does.
func cellConfig(js service.JobSpec) (experiment.RunConfig, error) {
	spec := sweep.Spec{
		Workloads: []workload.Spec{{Name: js.Bench, Class: js.Class, Procs: js.Procs}},
		Platforms: []string{js.Platform},
		Faults:    []string{js.Fault},
		Seeds:     1,
		Seed0:     js.Seed,
		Detector:  sweep.DetectorSpec{Monitor: true},
	}
	cells, err := spec.Cells()
	if err != nil {
		return experiment.RunConfig{}, err
	}
	return spec.RunConfig(cells[0])
}

// daemonPass is what one measured phase saw.
type daemonPass struct {
	jobs      int
	completed int
	events    uint64
	elapsed   time.Duration
	latencyMS []float64
	lagMS     []float64
	ingestMS  []float64
	runMS     []float64
	mem       memDelta
	counters0 map[string]int64
	counters1 map[string]int64
}

// refusal is one stream batch the service refused.
type refusal struct {
	samples int
	why     string
}

func verdictDigest(v service.Verdict) string {
	var faulty []int
	if v.Report != nil {
		faulty = v.Report.FaultyRanks
	}
	return digest(v.Detected, v.Delay, v.Cause, faulty, v.Events)
}

// measure drives open-loop traffic for d: jobs on the seed's arrival
// schedule, the stream feeder, and the verdict reader. It returns once
// every job submitted has its verdict (or waitLimit passed).
func (b *daemonBench) measure(out *outcome, d time.Duration, phase int) daemonPass {
	ps := daemonPass{counters0: b.svc.Counters().Counters}
	before := memNow()
	// Arrivals: job i is due at (i+u)/rate with u uniform in [0, 1)
	// from the seed, so every run sends the same number of jobs and
	// bursts stay short.
	n := int(b.opts.sizes.daemonRate * d.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + b.rng.Float64()) / b.opts.sizes.daemonRate * float64(time.Second))
	}
	b.pool.takeRunMS()
	start := time.Now()
	deadline := start.Add(d)
	var bg sync.WaitGroup
	bg.Add(2)
	var refused []refusal
	go func() { defer bg.Done(); refused = b.feed(start, deadline) }()
	go func() { defer bg.Done(); b.readLoop(start, deadline) }()

	ctx, cancel := context.WithTimeout(context.Background(), d+waitLimit)
	defer cancel()
	var waiters sync.WaitGroup
	var lmu sync.Mutex
	var lastDone time.Time
	var failures []string
	for i, at := range due {
		dueAt := start.Add(at)
		time.Sleep(time.Until(dueAt))
		id := fmt.Sprintf("p%d-j%d", phase, i)
		js := b.cells[i%len(b.cells)]
		js.ID = id
		sent := time.Now()
		err := b.svc.Submit(js)
		b.tr.record("service.submit", id, sent, time.Now())
		ps.lagMS = append(ps.lagMS, float64(sent.Sub(dueAt).Nanoseconds())/1e6)
		ps.jobs++
		if err != nil {
			lmu.Lock()
			failures = append(failures, fmt.Sprintf("job %s refused: %v", id, err))
			lmu.Unlock()
			continue
		}
		b.mu.Lock()
		b.jobCell[id] = i % len(b.cells)
		b.mu.Unlock()
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			v, err := b.svc.Wait(ctx, id)
			done := time.Now()
			lmu.Lock()
			defer lmu.Unlock()
			if err != nil {
				failures = append(failures, fmt.Sprintf("job %s: no verdict: %v", id, err))
				return
			}
			b.tr.record("service.job", id, dueAt, done)
			b.mu.Lock()
			b.verdicts[id] = v
			b.mu.Unlock()
			if v.Status != service.VerdictOK {
				failures = append(failures, fmt.Sprintf("job %s failed: %s", id, v.Error))
				return
			}
			lat := done.Sub(dueAt)
			if lat > b.opts.sizes.jobDeadline {
				failures = append(failures, fmt.Sprintf("job %s missed its deadline: %v", id, lat))
			}
			ps.completed++
			ps.events += v.Events
			ps.latencyMS = append(ps.latencyMS, float64(lat.Nanoseconds())/1e6)
			ps.ingestMS = append(ps.ingestMS, float64(v.IngestUS)/1e3)
			if done.After(lastDone) {
				lastDone = done
			}
		}()
	}
	waiters.Wait()
	bg.Wait()
	ps.elapsed = lastDone.Sub(start)
	ps.mem = memSince(before)
	ps.runMS = b.pool.takeRunMS()
	ps.counters1 = b.svc.Counters().Counters
	out.attempted += ps.jobs
	for _, f := range failures {
		out.fail(1, false, "%s", f)
	}
	for _, r := range refused {
		out.fail(r.samples, false, "%s", r.why)
	}
	return ps
}

// feed sends the stream job's healthy signal in fixed batches on a
// fixed schedule, whatever the backlog. Refused batches are returned,
// not retried.
func (b *daemonBench) feed(start, deadline time.Time) []refusal {
	s := b.opts.sizes
	every := time.Duration(float64(s.streamBatch) / float64(s.streamRate) * float64(time.Second))
	usPer := int64(1e6 / s.streamRate)
	var refused []refusal
	for k := 0; ; k++ {
		at := start.Add(time.Duration(k) * every)
		if !at.Before(deadline) {
			return refused
		}
		time.Sleep(time.Until(at))
		// A fresh slice per call: the service keeps the batch until its
		// shard has ingested it.
		batch := make([]service.StreamSample, s.streamBatch)
		b.mu.Lock()
		n0 := b.samples
		b.samples += int64(len(batch))
		b.mu.Unlock()
		for i := range batch {
			n := n0 + int64(i)
			// A varied healthy signal: the monitor refits on every sample
			// but never suspects a hang.
			batch[i] = service.StreamSample{TUS: n * usPer, Scrout: float64(1+n%7) / 8}
		}
		t0 := time.Now()
		err := b.svc.Feed(streamJobID, batch)
		b.tr.record("service.feed", streamJobID, t0, time.Now())
		if err != nil {
			refused = append(refused, refusal{len(batch), fmt.Sprintf("stream samples %d..%d refused: %v", n0, n0+int64(len(batch))-1, err)})
			continue
		}
		b.mu.Lock()
		b.fedOK += int64(len(batch))
		b.mu.Unlock()
	}
}

// readLoop pages through new verdicts once per readInterval.
func (b *daemonBench) readLoop(start, deadline time.Time) {
	for k := 1; ; k++ {
		at := start.Add(time.Duration(k) * b.opts.sizes.readInterval)
		if !at.Before(deadline) {
			return
		}
		time.Sleep(time.Until(at))
		b.readPage()
	}
}

// readPage fetches every verdict decided since the last read.
func (b *daemonBench) readPage() {
	for {
		b.mu.Lock()
		after := b.lastSeq
		b.mu.Unlock()
		t0 := time.Now()
		page, more := b.svc.VerdictsPage(after, 0)
		b.tr.record("service.verdicts_page", "", t0, time.Now())
		b.mu.Lock()
		for _, v := range page {
			if v.Seq > b.lastSeq {
				b.lastSeq = v.Seq
			}
			b.read[v.JobID] = v
		}
		b.mu.Unlock()
		if !more {
			return
		}
	}
}

// verify compares every job's verdict with the reader's copy and with
// experiment.Run on the same cell, then drains the service and checks
// the stream close-out, the journal replay and the ledger audit. It
// returns the reference runs, the source of the simulated statistics.
func (b *daemonBench) verify(out *outcome) ([]experiment.RunResult, error) {
	b.readPage()
	if _, decided, err := b.svc.Verdict(streamJobID); err != nil || decided {
		out.fail(1, true, "stream job: healthy signal decided=%t err=%v", decided, err)
	}

	rcs := make([]experiment.RunConfig, len(b.cells))
	for i, js := range b.cells {
		rc, err := cellConfig(js)
		if err != nil {
			return nil, err
		}
		rcs[i] = rc
	}
	refs := make([]experiment.RunResult, len(rcs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i] = experiment.Run(rcs[i])
			}
		}()
	}
	for i := range rcs {
		next <- i
	}
	close(next)
	wg.Wait()

	b.mu.Lock()
	for id, v := range b.verdicts {
		r := &refs[b.jobCell[id]]
		want := digest(r.Detected, r.Delay, r.Cause, faultyRanks(r), r.Events)
		if got := verdictDigest(v); got != want {
			out.fail(1, true, "job %s: verdict %s, experiment.Run gave %s", id, got, want)
		}
		if rv, ok := b.read[id]; !ok {
			out.fail(1, true, "job %s: verdict never served by VerdictsPage", id)
		} else if verdictDigest(rv) != verdictDigest(v) || rv.Seq != v.Seq {
			out.fail(1, true, "job %s: VerdictsPage served a different verdict", id)
		}
	}
	fedOK := b.fedOK
	admitted := len(b.jobCell) + 1
	b.mu.Unlock()

	if err := b.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if v, decided, err := b.svc.Verdict(streamJobID); err != nil || !decided ||
		!v.Completed || v.Report != nil || int64(v.Samples) != fedOK {
		out.fail(1, true, "stream job close-out: %d samples counted, %d accepted (err %v)", v.Samples, fedOK, err)
	}
	if err := b.led.Close(); err != nil {
		return nil, fmt.Errorf("ledger close: %w", err)
	}
	if err := b.jl.Close(); err != nil {
		return nil, fmt.Errorf("journal close: %w", err)
	}
	recs, err := results.ReadJSONL(b.jlPath)
	if err != nil {
		return nil, err
	}
	rep := service.ReplayJournal(recs)
	if len(rep.Open) != 0 || rep.Skipped != 0 || len(rep.Decided) != admitted {
		out.fail(1, true, "journal replay: %s, want %d decided", rep, admitted)
	}
	audit, err := ledger.Verify(b.store, b.workers)
	if err != nil {
		return nil, err
	}
	if !audit.OK() || audit.Records != admitted {
		out.fail(1, true, "ledger audit: %d records, %d problems, want %d records", audit.Records, len(audit.Problems), admitted)
	}
	return refs, nil
}

func runDaemon(opts options) (*outcome, error) {
	b := &daemonBench{
		opts:     opts,
		workers:  workerCount(),
		tr:       newTracer(),
		cells:    daemonCells(opts.seed, opts.sizes.daemonCells),
		rng:      rand.New(rand.NewSource(opts.seed)),
		verdicts: map[string]service.Verdict{},
		jobCell:  map[string]int{},
		read:     map[string]service.Verdict{},
	}
	out := newOutcome(b.workers)
	setupS, teardown, err := setupTimes(opts.sizes.setupReps, b.setup)
	if err != nil {
		return nil, err
	}
	defer teardown()
	live := liveHeap()

	var plain, traced daemonPass
	var handoff float64
	var prof []byte
	if !opts.trace {
		plain = b.measure(out, opts.seconds, 0)
	} else {
		handoff = handoffNS(opts.sizes.handoffTrips)
		plain = b.measure(out, opts.seconds/2, 0)
		prof, err = tracedPass(b.tr, "daemon-traced", func() { traced = b.measure(out, opts.seconds/2, 1) })
		if err != nil {
			return nil, err
		}
	}
	b.mu.Lock()
	out.attempted += int(b.samples)
	b.mu.Unlock()
	refs, err := b.verify(out)
	if err != nil {
		return nil, err
	}
	addSimStats(out, refs)
	if plain.completed == 0 {
		return nil, fmt.Errorf("no job completed")
	}

	if !opts.trace {
		out.e2e("setup_s", "s", setupS)
		out.e2e("runs_per_s", "1/s", float64(plain.completed)/plain.elapsed.Seconds())
		out.e2e("sim_events_per_s", "1/s", float64(plain.events)/plain.elapsed.Seconds())
		out.e2e("job_latency_p50_ms", "ms", quantile(plain.latencyMS, 0.5))
		out.e2e("job_latency_p90_ms", "ms", quantile(plain.latencyMS, 0.9))
		out.e2e("live_bytes_per_rank", "B", float64(live)/float64(b.workers*64))
		return out, nil
	}

	if err := addProfile(out, prof); err != nil {
		return nil, err
	}
	addZeroLayers(out)
	us := func(name string, q float64) float64 { return quantile(b.tr.durations(name), q) * 1e3 }
	ms := func(name string, q float64) float64 { return quantile(b.tr.durations(name), q) }
	out.layer("sim.handoff_ns", "ns", handoff)
	out.layer("gc.alloc_bytes_per_run", "B", float64(plain.mem.allocBytes)/float64(plain.completed))
	out.layer("gc.cycles_per_run", "count", float64(plain.mem.gcCycles)/float64(plain.completed))
	out.layer("service.submit_us_p50", "us", us("service.submit", 0.5))
	out.layer("service.submit_us_p90", "us", us("service.submit", 0.9))
	out.layer("service.run_ms_p50", "ms", ms("service.run", 0.5))
	out.layer("service.run_ms_p90", "ms", ms("service.run", 0.9))
	out.layer("service.ingest_wait_ms_p50", "ms", quantile(traced.ingestMS, 0.5))
	out.layer("service.ingest_wait_ms_p90", "ms", quantile(traced.ingestMS, 0.9))
	out.layer("service.journal_append_us_p50", "us", us("service.journal_append", 0.5))
	out.layer("service.journal_append_us_p90", "us", us("service.journal_append", 0.9))
	out.layer("service.sink_append_us_p50", "us", us("service.sink_append", 0.5))
	out.layer("service.sink_append_us_p90", "us", us("service.sink_append", 0.9))
	out.layer("service.feed_us_p90", "us", us("service.feed", 0.9))
	out.layer("service.verdicts_page_us_p90", "us", us("service.verdicts_page", 0.9))
	out.layer("service.batches_flushed", "count",
		float64(traced.counters1[service.CtrBatchesFlushed]-traced.counters0[service.CtrBatchesFlushed]))
	out.layer("service.samples_ingested", "count",
		float64(traced.counters1[service.CtrSamplesIn]-traced.counters0[service.CtrSamplesIn]))
	out.layer("service.generator_lag_p90_ms", "ms", quantile(traced.lagMS, 0.9))
	out.layer("trace.overhead_share", "share", 1-quantile(plain.runMS, 0.5)/quantile(traced.runMS, 0.5))
	return out, b.tr.write(opts.workDir, opts.workload, opts.seed)
}
