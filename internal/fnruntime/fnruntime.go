// Package fnruntime executes function invocations inside containers in the
// discrete-event simulation.
//
// An invocation's body follows the paper's I/O function shape (Listing 1):
//
//  1. Client creation — construct the cloud-storage client. Constructions
//     serialise on the container's runtime lock (GIL group) and cost
//     superlinearly more under concurrency (Fig. 4). Without a Resource
//     Multiplexer every invocation builds its own instance and its memory
//     is released when the invocation returns; with a multiplexer the
//     first build is cached for the container's lifetime and subsequent
//     creations hit the cache or coalesce onto the in-flight build.
//  2. I/O wait — blocked on storage, no CPU.
//  3. Compute — CPU work in the container's cpuset group (for the fib
//     family this is the whole body).
//
// The runner fills the invocation's execution latency and reports
// aggregate client/cache statistics for the Fig. 12/14 reproductions.
package fnruntime

import (
	"errors"
	"fmt"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/node"
	"faasbatch/internal/obs"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// Record is what a run keeps of one completed invocation: who it was, its
// latency decomposition (§IV) and how it ended.
type Record struct {
	// ID is unique within a run.
	ID int64
	// Fn is the function name.
	Fn string
	// Arrive is when the platform received the request.
	Arrive sim.Time
	// Breakdown is the latency decomposition. The scheduler fills Sched,
	// ColdStart and Queue; the runner fills Exec.
	obs.Breakdown
	// Container identifies the container that executed the invocation
	// (empty when the invocation never reached a container body, e.g. a
	// failure after its retry budget drained). Containers serve a single
	// function for their whole life, so records sharing a Container must
	// share Fn — the group-purity invariant the property tests check.
	Container string
	// Retries counts extra scheduling attempts the invocation needed
	// (container crashes, boot failures); zero on the happy path.
	Retries int
	// Failed reports that the invocation exhausted its retry budget and
	// completed as a failure. A failed record still carries the latency
	// accumulated until the final attempt was given up.
	Failed bool
}

// Invocation is one function request flowing through the simulation; its
// Record is filled in as it goes.
type Invocation struct {
	Record
	// Spec is the function being invoked.
	Spec workload.Spec
	// Attempts counts scheduling attempts consumed so far; schedulers
	// increment it when they retry after a container fault.
	Attempts int
	// Route and Tag belong to the layers above the scheduler, which keep
	// what they must remember about an invocation here rather than in a
	// closure around its completion: the fleet dispatcher its binding,
	// the harness that generated the invocation a label of its own (a
	// scenario's phase index). Nothing below reads them.
	Route Route
	Tag   int

	// The body in flight (Runner.Execute): where it runs, since when, what
	// to free and whom to tell at the end, and which step comes next.
	runner    *Runner
	container *node.Container
	start     sim.Time
	transient int64
	done      Completer
	phase     phase
	step      func() // advance, bound once per invocation
	task      cpusched.Task
	freed     bool // recycled and not yet reused (checked under the race build only)
}

// Route is a fleet dispatcher's note on an invocation it bound.
type Route struct {
	// Worker is the node the invocation was dispatched to.
	Worker int
	// Lease identifies the pull scheduler's grant (Pull balancing only).
	Lease int64
	// Done is the submitter's completion callback.
	Done func(*Invocation)
}

// phase is what an executing body is waiting on.
type phase uint8

const (
	phaseIOWait  phase = iota + 1 // the storage round-trip timer
	phaseCompute                  // the CPU task in the container's group
)

// Completer is told when an invocation's body returned. A scheduler that
// executes on its hot path passes an object it already holds (a group's
// member slot, say) rather than a fresh closure.
type Completer interface {
	Completed(*Invocation)
}

// CompleteFunc adapts a function to a Completer.
type CompleteFunc func(*Invocation)

// Completed implements Completer.
func (f CompleteFunc) Completed(inv *Invocation) { f(inv) }

// NewInvocation builds an invocation with its record initialised.
func NewInvocation(id int64, spec workload.Spec, arrive sim.Time) *Invocation {
	inv := &Invocation{}
	inv.set(id, spec, arrive)
	return inv
}

// set makes inv a fresh request, keeping only its bound continuation.
func (inv *Invocation) set(id int64, spec workload.Spec, arrive sim.Time) {
	*inv = Invocation{
		Record: Record{ID: id, Fn: spec.Name, Arrive: arrive},
		Spec:   spec,
		step:   inv.step,
	}
}

// Recycle hands a completed invocation back to the submitter that owns it,
// to be reused for a later request through Reuse. Under the race build a
// recycled invocation is poisoned until then: recycling it again (a
// second completion), executing it or advancing its body panics.
func (inv *Invocation) Recycle() {
	if poison {
		if inv.freed {
			panic(fmt.Sprintf("fnruntime: invocation %d completed twice", inv.ID))
		}
		inv.freed = true
	}
}

// Reuse reinitialises a recycled invocation for a new request, as
// NewInvocation would build it, except that it keeps the body's
// continuation, bound at its first Execute.
func (inv *Invocation) Reuse(id int64, spec workload.Spec, arrive sim.Time) {
	if poison && !inv.freed {
		panic(fmt.Sprintf("fnruntime: reusing invocation %d, which was never recycled", inv.ID))
	}
	inv.set(id, spec, arrive)
}

// Execute's rejects: the scheduler must retry the invocation on another
// container. They carry no container id, so a reject allocates nothing;
// the caller holds the container if it wants to name it.
var (
	// ErrContainerEvicted rejects an invocation routed to a container
	// that was torn down (evicted, terminated or crashed earlier).
	ErrContainerEvicted = errors.New("fnruntime: container is evicted")
	// ErrContainerCrashed rejects an invocation whose entry crashed the
	// container (fault injection).
	ErrContainerCrashed = errors.New("fnruntime: container crashed")
)

// Stats aggregates runner-level execution counters.
type Stats struct {
	// Executed counts completed invocations.
	Executed int64
	// CrashRejects counts Execute calls refused because the container
	// crashed or was evicted (the scheduler must retry the invocation).
	CrashRejects int64
	// ClientsBuilt counts actual client constructions performed.
	ClientsBuilt int64
	// ClientBytesAllocated is cumulative client memory charged.
	ClientBytesAllocated int64
	// CacheHits counts creations served from a ready multiplexer entry.
	CacheHits int64
	// CacheCoalesced counts creations that waited on an in-flight build.
	CacheCoalesced int64
}

// Add folds another runner's counters into s (a fleet's total).
func (s *Stats) Add(o Stats) {
	s.Executed += o.Executed
	s.CrashRejects += o.CrashRejects
	s.ClientsBuilt += o.ClientsBuilt
	s.ClientBytesAllocated += o.ClientBytesAllocated
	s.CacheHits += o.CacheHits
	s.CacheCoalesced += o.CacheCoalesced
}

// Runner executes invocations inside containers.
type Runner struct {
	eng   *sim.Engine
	inj   *chaos.Injector
	stats Stats
}

// NewRunner creates a runner on the given engine.
func NewRunner(eng *sim.Engine) *Runner {
	return &Runner{eng: eng}
}

// SetChaos installs a fault injector on the execution boundary: before an
// invocation enters its container, a ContainerCrash draw may kill the
// container, forcing every scheduler through its retry path. The boundary
// is policy-neutral — Vanilla and FaaSBatch face the same fault stream.
func (r *Runner) SetChaos(inj *chaos.Injector) { r.inj = inj }

// Stats reports the aggregate execution counters.
func (r *Runner) Stats() Stats { return r.stats }

// Execute runs inv inside container c. The invocation occupies a thread
// for its whole body; done is told when the body returns, after Exec
// is set. The caller remains responsible for the container's acquisition
// reservation (ReturnThread on the handle it got from Acquire).
//
// The body is a short state machine kept on the invocation — client,
// I/O wait, compute, finish — advanced by whichever timer or CPU task it
// is waiting on. The one thing it allocates, once per invocation, is that
// continuation; only a client that has to be built or waited for adds to it.
func (r *Runner) Execute(inv *Invocation, c *node.Container, done Completer) error {
	if inv == nil || c == nil {
		return fmt.Errorf("fnruntime: execute requires an invocation and a container")
	}
	if poison && inv.freed {
		panic(fmt.Sprintf("fnruntime: executing recycled invocation %d", inv.ID))
	}
	if c.State() == node.Evicted {
		r.stats.CrashRejects++
		return ErrContainerEvicted
	}
	if r.inj.Should(chaos.ContainerCrash) {
		// The container dies as the invocation enters it: this and every
		// later invocation routed to it observe the Evicted state, so a
		// whole in-flight batch fails together (§III-C's single-container
		// mapping concentrates the blast radius).
		c.Crash()
		r.stats.CrashRejects++
		return ErrContainerCrashed
	}
	c.CheckoutThread()
	inv.runner, inv.container, inv.done = r, c, done
	inv.start = r.eng.Now()
	inv.Container = c.ID()
	if inv.step == nil {
		inv.step = inv.advance
	}
	if inv.Spec.Client == nil {
		r.runBody(inv, 0)
		return nil
	}
	r.acquireClient(inv)
	return nil
}

// runBody performs the I/O wait and compute phases, then finishes.
// transientBytes is the private client to free at body end (zero when the
// instance is cached or shared).
func (r *Runner) runBody(inv *Invocation, transientBytes int64) {
	inv.transient = transientBytes
	if inv.Spec.IOWait > 0 {
		inv.phase = phaseIOWait
		r.eng.Schedule(inv.Spec.IOWait, inv.step)
		return
	}
	r.compute(inv)
}

// compute burns the body's CPU work in the container's cpuset group.
func (r *Runner) compute(inv *Invocation) {
	if inv.Spec.Work <= 0 {
		r.finish(inv)
		return
	}
	inv.phase = phaseCompute
	inv.container.Group().Start(&inv.task, inv.Spec.Work, inv.step)
}

// advance is the body's continuation: the I/O timer and the CPU task both
// land here, and the phase says which one it was.
func (inv *Invocation) advance() {
	if poison && inv.freed {
		panic(fmt.Sprintf("fnruntime: advancing recycled invocation %d", inv.ID))
	}
	switch inv.phase {
	case phaseIOWait:
		inv.runner.compute(inv)
	case phaseCompute:
		inv.runner.finish(inv)
	}
}

// finish returns the body: Exec, the transient client, the thread.
func (r *Runner) finish(inv *Invocation) {
	c := inv.container
	inv.Exec = r.eng.Now().Sub(inv.start)
	if inv.transient > 0 {
		// A non-multiplexed client is garbage once the invocation
		// returns.
		c.FreeClientMem(inv.transient)
	}
	r.stats.Executed++
	c.ReturnThread()
	inv.done.Completed(inv)
}

// acquireClient obtains the storage client — through the container's
// Resource Multiplexer when present, otherwise by building a private
// instance — and runs the body once it has one. Only the branches that
// wait on a build make a closure; a cache hit goes straight on.
func (r *Runner) acquireClient(inv *Invocation) {
	c, spec := inv.container, inv.Spec.Client
	cache := c.Cache()
	if cache == nil {
		r.buildClient(c, spec, func(bytes int64) { r.runBody(inv, bytes) })
		return
	}
	key := multiplex.NewKey(spec.Callee, spec.ArgsKey)
	res, _ := cache.Begin(key)
	switch res {
	case multiplex.BeginHit:
		r.stats.CacheHits++
		r.runBody(inv, 0)
	case multiplex.BeginPending:
		r.stats.CacheCoalesced++
		cache.Wait(key, func(any) { r.runBody(inv, 0) })
	default: // BeginMiss: we are the builder
		r.buildClient(c, spec, func(bytes int64) {
			// The built instance lives until the cache evicts or closes
			// it; publish it so waiters and future creations share it.
			cache.Complete(key, struct{}{}, bytes)
			r.runBody(inv, 0)
		})
	}
}

// buildClient constructs one client instance: CPU work on the container's
// one-core GIL group, scaled superlinearly by the in-container creation
// concurrency sampled at start (Fig. 4). The instance memory is charged
// when construction starts — every concurrently creating thread holds its
// partially built instance, which is what makes container memory grow
// with creation concurrency (Fig. 5). built receives the instance bytes.
func (r *Runner) buildClient(c *node.Container, spec *workload.ClientSpec, built func(bytes int64)) {
	k := c.BeginClientCreation()
	work := spec.CreationWork(k)
	bytes := spec.InstanceMem(c.ClientLive() + 1)
	c.AllocClientMem(bytes)
	c.GILGroup().Submit(work, func() {
		c.EndClientCreation()
		r.stats.ClientsBuilt++
		r.stats.ClientBytesAllocated += bytes
		built(bytes)
	})
}
