package router

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// OverloadError is the admission controller's rejection: the caller
// should back off for RetryAfter and try again. The HTTP layer renders
// it as 429 with a Retry-After header — bounded shedding instead of an
// unbounded queue collapsing under its own latency.
type OverloadError struct {
	// Fn is the overloaded function.
	Fn string
	// Reason distinguishes a full queue from a queue-wait timeout.
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("router: %s overloaded (%s), retry after %v", e.Fn, e.Reason, e.RetryAfter)
}

// fnGate is one function's concurrency gate: a semaphore of Limit slots
// plus a bounded count of waiters.
type fnGate struct {
	slots   chan struct{}
	waiting int
}

// admission is the router's front door: per-function concurrency limits
// with a deadline-aware bounded queue. The zero-limit controller admits
// everything (admission is opt-in).
type admission struct {
	limit      int           // concurrent forwards per function (0 = unlimited)
	queueDepth int           // waiters allowed per function beyond the limit
	queueWait  time.Duration // max time a waiter queues before shedding

	mu  sync.Mutex
	fns map[string]*fnGate
}

// newAdmission builds a controller. limit <= 0 disables admission.
func newAdmission(limit, queueDepth int, queueWait time.Duration) *admission {
	if queueDepth < 0 {
		queueDepth = 0
	}
	if queueWait <= 0 {
		queueWait = time.Second
	}
	return &admission{
		limit:      limit,
		queueDepth: queueDepth,
		queueWait:  queueWait,
		fns:        make(map[string]*fnGate),
	}
}

// retryAfter suggests a client backoff: the queue wait rounded up to a
// whole second (Retry-After's granularity), at least one second.
func (a *admission) retryAfter() time.Duration {
	ra := a.queueWait
	if r := ra % time.Second; r != 0 {
		ra += time.Second - r
	}
	if ra < time.Second {
		ra = time.Second
	}
	return ra
}

// Acquire admits one invocation of fn, blocking in the bounded queue when
// the function is at its concurrency limit. It returns a release func on
// admission and an *OverloadError (or the context's error) on rejection.
// The queue is deadline-aware twice over: a waiter sheds after the queue
// wait, and sheds immediately when the caller's context is already done
// or would expire before the queue wait could admit it.
func (a *admission) Acquire(ctx context.Context, fn string) (release func(), err error) {
	if a.limit <= 0 {
		return func() {}, nil
	}
	a.mu.Lock()
	g, ok := a.fns[fn]
	if !ok {
		g = &fnGate{slots: make(chan struct{}, a.limit)}
		a.fns[fn] = g
	}
	select {
	case g.slots <- struct{}{}:
		a.mu.Unlock()
		return func() { <-g.slots }, nil
	default:
	}
	// At the limit: queue, boundedly.
	if g.waiting >= a.queueDepth {
		a.mu.Unlock()
		return nil, &OverloadError{Fn: fn, Reason: "queue full", RetryAfter: a.retryAfter()}
	}
	wait := a.queueWait
	if dl, has := ctx.Deadline(); has {
		remaining := time.Until(dl)
		if remaining <= 0 {
			a.mu.Unlock()
			return nil, &OverloadError{Fn: fn, Reason: "deadline expired in queue", RetryAfter: a.retryAfter()}
		}
		if remaining < wait {
			wait = remaining
		}
	}
	g.waiting++
	a.mu.Unlock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	defer func() {
		a.mu.Lock()
		g.waiting--
		a.mu.Unlock()
	}()
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	case <-timer.C:
		return nil, &OverloadError{Fn: fn, Reason: "queue wait exceeded", RetryAfter: a.retryAfter()}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
