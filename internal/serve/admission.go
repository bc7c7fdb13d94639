package serve

// admission.go — token-bucket admission control with priority classes and
// bounded wait queues. Each query class (lookup, range, summary) gets its
// own bucket sized to its cost: single-block lookups are nearly free and
// shed last; full-world summaries are the most expensive scan and shed
// first. A request that finds the bucket empty may wait — but only in a
// bounded queue and only for a bounded time, so overload turns into prompt,
// explicit 429/503 responses instead of an unbounded goroutine pileup
// (the failure mode the ISSUE forbids: "never unbounded queues").
//
// The clock is injected (ServerConfig.now): admission is wall-clock driven
// by nature — it rations a real resource — but tests and the determinism
// lint both want the read visible and overridable.

import (
	"context"
	"sync"
	"time"
)

// classLimits sizes one priority class's admission.
type classLimits struct {
	// RPS is the sustained token refill rate (requests per second).
	RPS float64
	// Burst is the bucket capacity: how far above RPS a spike may go.
	Burst int
	// Queue bounds how many requests may wait for a token at once; the
	// Queue+1'th waiter is shed immediately with 503.
	Queue int
	// MaxWait bounds how long a queued request waits before shedding 429.
	MaxWait time.Duration
}

// bucket is one class's token bucket plus its bounded wait queue.
type bucket struct {
	mu      sync.Mutex
	tokens  float64
	burst   float64
	rps     float64
	last    time.Time
	started bool
	waiting int
	queue   int
	maxWait time.Duration
}

func newBucket(l classLimits) *bucket {
	return &bucket{
		tokens:  float64(l.Burst),
		burst:   float64(l.Burst),
		rps:     l.RPS,
		queue:   l.Queue,
		maxWait: l.MaxWait,
	}
}

// take attempts to draw one token at time now. On failure it reports how
// long until a token will exist — the Retry-After the shed response carries.
func (b *bucket) take(now time.Time) (ok bool, retry time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.started {
		b.started, b.last = true, now
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rps
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rps * float64(time.Second))
}

// enter reserves a wait-queue slot; false means the queue is full and the
// request must be shed now.
func (b *bucket) enter() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.waiting >= b.queue {
		return false
	}
	b.waiting++
	return true
}

// leave releases a wait-queue slot.
func (b *bucket) leave() {
	b.mu.Lock()
	b.waiting--
	b.mu.Unlock()
}

// admitResult says what became of an admission attempt.
type admitResult uint8

const (
	// admitOK: token drawn; serve the request.
	admitOK admitResult = iota
	// admitRate: bucket empty past the wait budget — 429 Too Many Requests.
	admitRate
	// admitOverload: wait queue full or client gone — 503 Service Unavailable.
	admitOverload
)

// admit runs the full admission protocol for one request: draw a token,
// or wait (bounded in depth and duration) and try once more, or shed. Only
// the wait consults ctx, so an admitted request never asks for its Done
// channel (which, on a connection, starts the disconnect watch).
func (b *bucket) admit(ctx context.Context, now func() time.Time) (admitResult, time.Duration) {
	ok, retry := b.take(now())
	if ok {
		return admitOK, 0
	}
	if retry > b.maxWait {
		return admitRate, retry
	}
	if !b.enter() {
		return admitOverload, retry
	}
	t := time.NewTimer(retry)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		b.leave()
		return admitOverload, retry
	}
	b.leave()
	if ok, retry = b.take(now()); ok {
		return admitOK, 0
	}
	// Contenders beat us to the refill: shed rather than loop.
	return admitRate, retry
}
