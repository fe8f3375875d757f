package router

import (
	"context"
	"fmt"
	"sync"

	"faasbatch/internal/pullsched"
)

// Policy names accepted by Config.Policy and the -policy flag.
const (
	// PolicyHash is push scheduling: consistent-hash function affinity
	// with bounded load, the router's original behaviour and the default.
	PolicyHash = "hash"
	// PolicyPull is pull scheduling: invocations queue per function at
	// the router and workers with free capacity lease them in batches,
	// late-binding hot functions to the least-loaded worker.
	PolicyPull = "pull"
)

// Policy is the router's scheduling strategy: it turns an admitted
// invocation into a Binding that names the worker for each forward
// attempt. Implementations are the consistent-hash push policy
// (PolicyHash) and the late-binding pull policy (PolicyPull); New builds
// one of them from Config.Policy.
type Policy interface {
	// Name reports the policy's registered name.
	Name() string
	// Assign admits one invocation to the policy and returns the
	// binding that will name a worker per attempt. It blocks only in
	// scale-from-zero holds; queue waits happen in Binding.Next. The
	// error is ErrNoWorkers (empty ring) or an *OverloadError (the pull
	// policy's queue-depth bound).
	Assign(ctx context.Context, fn string) (Binding, error)
	// OnMembershipChange observes a worker joining or leaving the
	// serving set (probe mark-down/up, autoscale activate/drain/retire).
	// The pull policy stops granting to ineligible workers and treats a
	// newly eligible one as a wake — it immediately drains queued work.
	OnMembershipChange(workerID string, eligible bool)
	// Stats snapshots the policy's decision core for /stats and /metrics:
	// the pull core's counters, all zero under the hash policy.
	Stats() pullsched.Stats
}

// Binding is one invocation's assignment under a Policy. A binding is
// single-use: both policies recycle it for a later invocation once it
// is settled, so Done must be called exactly once and is the last use —
// nothing may call Next, Done or detail after it, or keep the binding.
// Under the race build, touching a recycled binding panics.
type Binding interface {
	// Next names the worker for the given 1-based attempt. Hash returns
	// ring candidates round-robin and never blocks; pull blocks until a
	// lease is granted (attempt > 1 first requeues the failed lease so
	// the re-grant prefers a different worker).
	Next(ctx context.Context, attempt int) (string, error)
	// Done settles the binding: ok acks the lease, !ok aborts it (the
	// invocation errored out or its context expired), and hands the
	// binding back to its policy. The forwarder calls it exactly once,
	// via defer, after the route span has read detail.
	Done(ok bool)
	// detail labels the route span. Unexported, so only this package
	// implements Binding.
	detail() string
}

// hashPolicy is the push policy: Candidates picks bounded-load ring
// replicas once per invocation, and attempts walk them round-robin —
// byte-for-byte the router's pre-policy-API behaviour.
type hashPolicy struct {
	rt *Router
}

// Name implements Policy.
func (p *hashPolicy) Name() string { return PolicyHash }

// Assign implements Policy. The candidates are picked into the slice a
// recycled binding keeps, so a warm Assign allocates nothing.
func (p *hashPolicy) Assign(ctx context.Context, fn string) (Binding, error) {
	b := hashBindings.Get().(*hashBinding)
	b.pooled = false
	b.cands = p.rt.reg.appendCandidates(b.cands[:0], fn, p.rt.cfg.LoadBound)
	if len(b.cands) == 0 && p.rt.scaler != nil {
		// Scale-from-zero: the wake decision is already in flight
		// (observe ran before forward); hold the invocation until a
		// worker finishes warming instead of bouncing it with 503.
		b.cands = append(b.cands, p.rt.awaitCapacity(ctx, fn)...)
	}
	if len(b.cands) == 0 {
		b.release()
		return nil, ErrNoWorkers
	}
	return b, nil
}

// OnMembershipChange implements Policy: the ring inside the registry
// already reflects membership, so hash has nothing to track.
func (p *hashPolicy) OnMembershipChange(string, bool) {}

// Stats implements Policy.
func (p *hashPolicy) Stats() pullsched.Stats { return pullsched.Stats{} }

// hashBinding walks the candidate list round-robin across attempts.
type hashBinding struct {
	cands []string
	// pooled marks a binding back in hashBindings (checked under the
	// race build only).
	pooled bool
}

// hashBindings recycles hash bindings with their candidate slices.
var hashBindings = sync.Pool{New: func() any { return new(hashBinding) }}

// Next implements Binding.
func (b *hashBinding) Next(_ context.Context, attempt int) (string, error) {
	b.checkOwned()
	return b.cands[(attempt-1)%len(b.cands)], nil
}

// Done implements Binding: push holds no lease to settle, so it only
// recycles the binding.
func (b *hashBinding) Done(bool) {
	b.checkOwned()
	b.release()
}

// release puts b back in hashBindings.
func (b *hashBinding) release() {
	b.pooled = poison
	hashBindings.Put(b)
}

// checkOwned panics, under the race build, on a use after Done.
func (b *hashBinding) checkOwned() {
	if poison && b.pooled {
		panic("router: hash binding used after Done")
	}
}

// detail implements Binding.
func (b *hashBinding) detail() string {
	b.checkOwned()
	return fmt.Sprintf("candidates=%d", len(b.cands))
}

// Option adjusts the Config passed to New. Options apply in order after
// the struct, so an option overrides the field it sets.
type Option func(*Config)

// WithPolicy selects the scheduling policy by name: it sets
// Config.Policy, overriding the struct's value. Tune the pull policy with
// Config.Pull.
func WithPolicy(name string) Option {
	return func(c *Config) { c.Policy = name }
}
