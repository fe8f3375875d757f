package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"faasbatch/internal/pullsched"
)

// errRouterClosed aborts pull waits when the router shuts down with
// leases still pending.
var errRouterClosed = errors.New("router: closed")

// pullPolicy drives the shared pullsched.Core against the live fleet.
// Each admitted invocation's forwarding goroutine doubles as its lease
// holder ("virtual pull"): Assign enqueues and registers a grant
// channel, Binding.Next blocks on it until the core leases the
// invocation to a worker, a failed attempt requeues so the re-grant
// late-binds elsewhere, and Done acks or aborts the lease and recycles
// the binding, channel and all, for a later Assign. The core reads no
// clock and is unlocked; this driver serialises every core call under mu
// — the same discipline the sim driver gets for free from the
// single-threaded engine, which is what makes the two drivers' grant
// logs comparable.
type pullPolicy struct {
	rt  *Router
	ids []string // slot index -> worker ID (Config.Workers order)

	mu      sync.Mutex
	core    *pullsched.Core
	waiters map[int64]chan pullsched.Grant
	slots   map[string]int // worker ID -> slot index
	nextID  int64
	free    []*pullBinding // settled bindings, channels drained
}

// newPullPolicy builds the pull driver over rt's worker set. Called
// after the autoscale scaler (if any) has settled initial lifecycle
// states, so standby workers start ineligible.
func newPullPolicy(rt *Router, pcfg *pullsched.Config) (*pullPolicy, error) {
	cfg := pullsched.Config{}
	if pcfg != nil {
		cfg = *pcfg
	}
	cfg.Workers = len(rt.cfg.Workers)
	core, err := pullsched.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &pullPolicy{
		rt:      rt,
		core:    core,
		waiters: make(map[int64]chan pullsched.Grant),
		slots:   make(map[string]int, len(rt.cfg.Workers)),
	}
	for i, spec := range rt.cfg.Workers {
		p.slots[spec.ID] = i
		p.ids = append(p.ids, spec.ID)
		if rt.reg.State(spec.ID) != WorkerUp {
			p.core.SetWorker(i, false, 0)
		}
	}
	return p, nil
}

// Name implements Policy.
func (p *pullPolicy) Name() string { return PolicyPull }

// Assign implements Policy: enqueue the invocation and hand back a
// binding whose Next blocks on the lease grant. The queue-depth bound
// sheds here with an *OverloadError — the pull policy's admission
// control, replacing the per-function semaphore. A warm Assign reuses a
// settled binding and allocates nothing.
func (p *pullPolicy) Assign(_ context.Context, fn string) (Binding, error) {
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	gs, shed := p.core.Enqueue(id, fn, 0)
	if shed {
		depth := p.core.Config().QueueDepth
		p.mu.Unlock()
		return nil, &OverloadError{
			Fn:         fn,
			Reason:     "pull queue full",
			RetryAfter: pullRetryAfter(depth),
		}
	}
	var b *pullBinding
	if n := len(p.free); n > 0 {
		b, p.free = p.free[n-1], p.free[:n-1]
		b.pooled = false
	} else {
		// An invocation holds at most one grant at a time (a re-grant
		// needs Fail, which Next calls only after it consumed the last
		// one), so one slot keeps delivery from blocking the policy lock.
		b = &pullBinding{p: p, ch: make(chan pullsched.Grant, 1)}
	}
	b.id = id
	p.waiters[id] = b.ch
	p.deliverLocked(gs)
	p.mu.Unlock()
	return b, nil
}

// deliverLocked routes grants to their lease holders' channels. Sends
// never block (each channel has room for the one grant its invocation
// can hold), so grant delivery cannot deadlock against the policy lock.
// A full channel would mean a second grant for one invocation; the race
// build panics on it rather than drop the grant.
func (p *pullPolicy) deliverLocked(gs []pullsched.Grant) {
	for _, g := range gs {
		ch, ok := p.waiters[g.ID]
		if !ok {
			continue
		}
		select {
		case ch <- g:
		default:
			if poison {
				panic(fmt.Sprintf("router: pull lease %d granted while its last grant is unread", g.ID))
			}
		}
	}
}

// fail requeues a lease after a failed forward attempt; the freed
// capacity may grant other queued invocations. The unlock is deferred
// because the caller's deferred Done takes mu too: a race-build panic
// in deliverLocked must release it on the way out, not deadlock.
func (p *pullPolicy) fail(id int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deliverLocked(p.core.Fail(id, 0))
}

// settle acks (ok) or aborts b's lease — an abort also withdraws a
// queued copy — delivers the grants the freed capacity unlocks, and
// puts b on the free list. Its id leaves waiters first, so no grant can
// reach its channel any more; one already there (delivered while Next
// returned on its cancelled context) is drained, so the next invocation
// to take b sees only its own grant.
func (p *pullPolicy) settle(b *pullBinding, ok bool) {
	p.mu.Lock()
	var gs []pullsched.Grant
	if ok {
		gs = p.core.Complete(b.id, 0)
	} else {
		gs = p.core.Abort(b.id, 0)
	}
	delete(p.waiters, b.id)
	p.deliverLocked(gs)
	p.releaseLocked(b)
	p.mu.Unlock()
}

// releaseLocked drains b's channel and puts b on the free list.
func (p *pullPolicy) releaseLocked(b *pullBinding) {
	if _, waiting := p.waiters[b.id]; poison && waiting {
		panic(fmt.Sprintf("router: pull binding %d recycled while its lease waits", b.id))
	}
	for len(b.ch) > 0 {
		<-b.ch
	}
	b.pooled = poison
	p.free = append(p.free, b)
}

// OnMembershipChange implements Policy: probe mark-downs and autoscale
// drains/retires stop the worker pulling; mark-ups and activations are
// wakes that immediately drain queued work onto the new capacity.
func (p *pullPolicy) OnMembershipChange(workerID string, eligible bool) {
	p.mu.Lock()
	if i, ok := p.slots[workerID]; ok {
		p.deliverLocked(p.core.SetWorker(i, eligible, 0))
	}
	p.mu.Unlock()
}

// Stats implements Policy.
func (p *pullPolicy) Stats() pullsched.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Stats()
}

// pullRetryAfter sizes the 429 Retry-After hint from the queue depth.
func pullRetryAfter(depth int) time.Duration {
	if depth > 4 {
		return 2 * time.Second
	}
	return time.Second
}

// pullBinding is one invocation's lease-holder handle. Settled
// bindings wait on the policy's free list, channel included, for the
// next Assign.
type pullBinding struct {
	p  *pullPolicy
	id int64
	ch chan pullsched.Grant
	// pooled marks a binding on the free list (set under the race build
	// only).
	pooled bool
}

// Next implements Binding: block until the core leases this invocation
// to a worker. Attempts after the first requeue the failed lease first,
// so the re-grant late-binds to a different worker when one has
// capacity. The wait is bounded by the invocation's context and the
// router's shutdown; a grant already delivered — the arrival's own is
// usually delivered inside Assign — is taken without consulting the
// context, whose Done channel some contexts build on first use.
func (b *pullBinding) Next(ctx context.Context, attempt int) (string, error) {
	b.checkOwned()
	if attempt > 1 {
		b.p.fail(b.id)
	}
	select {
	case g := <-b.ch:
		return b.p.ids[g.Worker], nil
	default:
	}
	select {
	case g := <-b.ch:
		return b.p.ids[g.Worker], nil
	case <-ctx.Done():
		return "", ctx.Err()
	case <-b.p.rt.stop:
		return "", errRouterClosed
	}
}

// Done implements Binding: ack on success, abort otherwise (an abort
// also withdraws a queued copy, so an invocation is never served
// twice), then recycle the binding.
func (b *pullBinding) Done(ok bool) {
	b.checkOwned()
	b.p.settle(b, ok)
}

// checkOwned panics, under the race build, on a use after Done.
func (b *pullBinding) checkOwned() {
	if poison && b.pooled {
		panic(fmt.Sprintf("router: pull binding %d used after Done", b.id))
	}
}

// detail implements Binding.
func (b *pullBinding) detail() string {
	b.checkOwned()
	return "pull"
}
