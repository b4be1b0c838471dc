package service

import (
	"sync"
	"time"
)

// Breaker states, surfaced in Health and counters.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one shard's circuit breaker. Simulation dispatch consults
// it before handing a job to the worker pool: after Threshold
// consecutive failed executions (panicked runs) of the jobs hashed to
// its shard, the breaker opens and the shard's jobs are bounced back
// to the supervisor as failed attempts — requeued with backoff instead
// of dispatched. The shards share the pool's workers, so the count is
// per shard, not per worker. After Cooldown the breaker goes half-open and admits
// exactly one probe job; the probe's outcome closes the breaker
// (success) or re-opens it for another cooldown (failure).
//
// A breaker is shared between the shard loop (allow) and the pool
// workers' completion callbacks (record), so it carries its own lock.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip it (<=0: disabled)
	cooldown  time.Duration // open → half-open delay

	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	trips    int64     // cumulative open transitions
}

func newBreakers(n, threshold int, cooldown time.Duration) []*breaker {
	bs := make([]*breaker, n)
	for i := range bs {
		bs[i] = &breaker{threshold: threshold, cooldown: cooldown}
	}
	return bs
}

// allow reports whether a job may be dispatched now. In the half-open
// window the first caller becomes the probe; everyone else keeps
// bouncing until the probe resolves.
func (b *breaker) allow(now time.Time) bool {
	if b == nil || b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one run outcome in. It returns true when this outcome
// tripped the breaker open (the caller counts trips).
func (b *breaker) record(ok bool, now time.Time) (tripped bool) {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.failures = 0
		b.probing = false
		return false
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cooldown.
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.trips++
		return true
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.failures = 0
			b.trips++
			return true
		}
	}
	return false
}

// isOpen reports whether the breaker is currently refusing dispatch
// (open and still cooling down, or half-open with a probe in flight).
func (b *breaker) isOpen(now time.Time) bool {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return now.Sub(b.openedAt) < b.cooldown
	case breakerHalfOpen:
		return b.probing
	default:
		return false
	}
}
