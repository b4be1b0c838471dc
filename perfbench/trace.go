package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/results"
	"parastack/internal/sim"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one job or cell share Key; Parent names the pass that caused it.
type span struct {
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; write flushes them once, at
// the end of the invocation. While off, record is one atomic load.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	parent string

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(parent string) {
	t.mu.Lock()
	t.parent = parent
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

func (t *tracer) record(name, key string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Key: key, Parent: t.parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(),
		EndNS:   end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns the lengths of every span called name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// write stores every span as JSONL under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runnerPool is the executor the benchmark installs as sweep.Options.Run
// and service.Config.Run: one reused experiment.Runner per worker, as
// the default executors keep, plus a span per run while tracing. It
// also keeps every run's wall time, which compares the untraced and
// traced halves of a daemon run.
type runnerPool struct {
	free chan *experiment.Runner
	tr   *tracer
	name string

	mu    sync.Mutex
	runMS []float64
}

func newRunnerPool(workers int, tr *tracer, name string) *runnerPool {
	p := &runnerPool{free: make(chan *experiment.Runner, workers), tr: tr, name: name}
	for i := 0; i < workers; i++ {
		p.free <- experiment.NewRunner()
	}
	return p
}

// warm runs rcs on every runner, one goroutine per runner, so the
// measured phase starts from the runners' steady-state memory.
func (p *runnerPool) warm(rcs ...experiment.RunConfig) {
	runners := make([]*experiment.Runner, cap(p.free))
	for i := range runners {
		runners[i] = <-p.free
	}
	var wg sync.WaitGroup
	for _, rn := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rc := range rcs {
				rn.Run(rc)
			}
		}()
	}
	wg.Wait()
	for _, rn := range runners {
		p.free <- rn
	}
}

func (p *runnerPool) run(rc experiment.RunConfig) (res experiment.RunResult) {
	rn := <-p.free
	done := false
	defer func() {
		if !done {
			// A runner that panicked mid-run is not safely resettable.
			rn = experiment.NewRunner()
		}
		p.free <- rn
	}()
	start := time.Now()
	res = rn.Run(rc)
	end := time.Now()
	done = true
	p.mu.Lock()
	p.runMS = append(p.runMS, float64(end.Sub(start).Nanoseconds())/1e6)
	p.mu.Unlock()
	if p.tr.on.Load() {
		p.tr.record(p.name, fmt.Sprintf("%s|%s|seed=%d", rc.Params.Spec, rc.FaultKind, rc.Seed), start, end)
	}
	return res
}

// takeRunMS returns and clears the run times recorded so far.
func (p *runnerPool) takeRunMS() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.runMS
	p.runMS = nil
	return out
}

// timedSink wraps a results.Sink with a span per Append. It forwards
// results.Flusher and results.Lagger, which the service type-asserts
// on its journal.
type timedSink struct {
	inner results.Sink
	tr    *tracer
	name  string
}

func (s *timedSink) Append(rec results.Record) error {
	start := time.Now()
	err := s.inner.Append(rec)
	s.tr.record(s.name, rec.Key, start, time.Now())
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

func (s *timedSink) Flush() error {
	if f, ok := s.inner.(results.Flusher); ok {
		return f.Flush()
	}
	return nil
}

func (s *timedSink) Lag() int {
	if l, ok := s.inner.(results.Lagger); ok {
		return l.Lag()
	}
	return 0
}

// handoffNS times the Proc.Suspend/Wake round trip between two
// simulated processes, the way engine/sleep_wake_handoff does, and
// returns the median nanoseconds per round trip over five repetitions.
func handoffNS(trips int) float64 {
	var per []float64
	for rep := 0; rep < 5; rep++ {
		e := sim.NewEngine(1)
		blocked := e.SpawnNow("blocked", func(p *sim.Proc) {
			for i := 0; i < trips; i++ {
				p.Suspend()
			}
		})
		e.SpawnNow("waker", func(p *sim.Proc) {
			for i := 0; i < trips; i++ {
				blocked.Wake()
				p.Yield()
			}
		})
		start := time.Now()
		e.RunAll()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(trips))
		e.Shutdown()
	}
	return quantile(per, 0.5)
}

// another reports whether a measured phase should start one more pass
// that will take about as long as the last one: always before the
// first, then while at least half of it fits before the deadline, so a
// phase ends within half a pass of its nominal length.
func another(passes int, deadline time.Time, last time.Duration) bool {
	return passes == 0 || time.Until(deadline) > last/2
}

// memDelta is the allocation and GC-cycle growth over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	return memNow().HeapAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// digest is the part of a verdict that must repeat exactly at a fixed
// seed: detection, delay, cause, faulty ranks and event count.
func digest(detected bool, delay time.Duration, cause string, faulty []int, events uint64) string {
	return fmt.Sprintf("%t|%d|%s|%v|%d", detected, delay.Nanoseconds(), cause, faulty, events)
}

// digests maps a cell key to the first verdict digest seen for it, so
// repeats in one invocation and across its two halves can be checked.
type digests map[string]string

// check compares d with key's digest, recording d if key is new. It
// returns the recorded digest and whether d matches it.
func (ds digests) check(key, d string) (string, bool) {
	w, seen := ds[key]
	if !seen {
		ds[key] = d
		return d, true
	}
	return w, w == d
}

// setupTimes runs set-up reps times, each from a collected heap, and
// returns the median seconds. Each set-up's teardown runs before the
// next one; the last one's is returned to the caller, who keeps what
// that set-up built.
func setupTimes(reps int, setup func() (teardown func(), err error)) (float64, func(), error) {
	var secs []float64
	var keep func()
	for i := 0; i < reps; i++ {
		if keep != nil {
			keep()
		}
		runtime.GC()
		start := time.Now()
		td, err := setup()
		if err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		keep = td
	}
	return quantile(secs, 0.5), keep, nil
}
