// Package core implements FaaSBatch, the paper's contribution (§III): a
// serverless scheduler that folds concurrent invocations into as few
// containers as possible and spreads them out again inside.
//
// The scheduler combines three modules:
//
//   - Invoke Mapper — listens to the request queue for a dispatch window
//     (the paper's fixed 0.2 s interval by default) and classifies the
//     invocations that arrived within it into per-function groups: all
//     requests for one function in one window form a single batch. When a
//     window closes is internal/dispatch's decision, under either policy.
//   - Inline-Parallel Producer — maps each group to exactly one container
//     (warm when a keep-alive container exists), applies the customer's
//     CPU limit to the container's cpuset, delivers the whole batch with
//     one HTTP request, and expands it: every invocation of the group
//     executes concurrently as a thread inside that single container. The
//     batch request returns only after all invocations complete (§III-C).
//   - Resource Multiplexer — each FaaSBatch container carries the
//     multiplex.Cache, so redundant resource creations (storage clients)
//     are served from cache instead of being rebuilt (§III-D).
package core

import (
	"fmt"
	"sort"
	"time"

	"faasbatch/internal/dispatch"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
)

// Config parameterises the FaaSBatch scheduler.
type Config struct {
	// Interval is the Invoke Mapper's dispatch interval: requests
	// received within one interval are treated as concurrent (§III-B).
	Interval time.Duration
	// CPULimit is the cpuset cap applied to FaaSBatch containers
	// (<= 0 means unlimited), honouring customer-specified CPU counts.
	CPULimit float64
	// Multiplex enables the Resource Multiplexer inside containers.
	// Disabling it isolates the Invoke Mapper + Inline-Parallel Producer
	// contribution (the ablation in bench_test.go).
	Multiplex bool
	// HTTPLatency is the cost of the batch-activating HTTP request from
	// the producer to the container (§III-C step 3).
	HTTPLatency time.Duration
	// MaxPendingCreates bounds in-flight container creations per
	// function. When the bound is hit, further groups attach to the
	// pending creation and expand on the container once it boots —
	// the platform's per-function scale-out limit.
	MaxPendingCreates int
	// Prewarm enables predictive pre-warming (extension, off by
	// default): functions that were active within PrewarmHorizon keep a
	// container provisioned ahead of their next group, trimming the
	// cold-start tail that keep-alive eviction would otherwise re-expose
	// on recurring bursts.
	Prewarm bool
	// PrewarmHorizon is how long after its last arrival a function is
	// still considered active for pre-warming.
	PrewarmHorizon time.Duration
	// MaxRetries bounds how many extra scheduling attempts an invocation
	// whose container crashed receives. Retried invocations re-batch into
	// the next dispatch window (the window interval is the backoff), so a
	// crashed group's members ride a replacement container together. An
	// invocation that exhausts the budget completes with Failed set —
	// at-most-(1+MaxRetries) execution attempts, never silent loss.
	MaxRetries int
	// AdaptiveDispatch selects the dispatch controller's load-aware
	// policy (internal/dispatch) over its fixed one: lone arrivals with no
	// batching opportunity dispatch immediately, an EWMA arrival-rate
	// tracker sizes each function's window within
	// [MinInterval, Interval] — capped at Interval, so adaptive mode
	// never batches more coarsely than the fixed configuration it
	// replaces — and a window whose group reaches MaxGroupSize closes
	// early. Off by default — the fixed Interval remains the paper's
	// behaviour.
	AdaptiveDispatch bool
	// MinInterval is the adaptive window floor (AdaptiveDispatch only).
	// Zero selects dispatch.DefaultMinInterval.
	MinInterval time.Duration
	// MaxGroupSize early-closes an adaptive window whose group reached
	// this many invocations (AdaptiveDispatch only; 0 means no cap).
	MaxGroupSize int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Interval:          200 * time.Millisecond,
		Multiplex:         true,
		HTTPLatency:       time.Millisecond,
		MaxPendingCreates: 32,
		PrewarmHorizon:    30 * time.Second,
		MaxRetries:        3,
	}
}

// Stats reports scheduler-level batching effectiveness.
type Stats struct {
	// Submitted counts invocations received.
	Submitted int64
	// Groups counts dispatched function groups (== batch HTTP requests
	// == container checkouts).
	Groups int64
	// MaxGroupSize is the largest batch expanded into one container.
	MaxGroupSize int
	// Retries counts invocation re-batches after container faults.
	Retries int64
	// Failed counts invocations that exhausted their retry budget and
	// completed as failures.
	Failed int64
	// GroupRedispatches counts whole groups re-batched because their
	// container crashed before expansion.
	GroupRedispatches int64
	// Prewarms counts predictive container creations (Prewarm only).
	Prewarms int64
	// KeepWarmTouches counts keep-alive refreshes of warm containers
	// for predicted-active functions (Prewarm only).
	KeepWarmTouches int64
	// FastPathDispatches counts lone arrivals dispatched immediately by
	// the adaptive idle fast-path (AdaptiveDispatch only).
	FastPathDispatches int64
	// EarlyCloses counts adaptive windows closed before their deadline
	// because the group reached MaxGroupSize.
	EarlyCloses int64
	// WindowDispatches counts windows that closed at their deadline, under
	// either policy (every fixed-interval group is one).
	WindowDispatches int64
}

// Add folds another scheduler's counters into s (a fleet's total; the
// largest group is the larger of the two).
func (s *Stats) Add(o Stats) {
	s.Submitted += o.Submitted
	s.Groups += o.Groups
	s.MaxGroupSize = max(s.MaxGroupSize, o.MaxGroupSize)
	s.Retries += o.Retries
	s.Failed += o.Failed
	s.GroupRedispatches += o.GroupRedispatches
	s.Prewarms += o.Prewarms
	s.KeepWarmTouches += o.KeepWarmTouches
	s.FastPathDispatches += o.FastPathDispatches
	s.EarlyCloses += o.EarlyCloses
	s.WindowDispatches += o.WindowDispatches
}

// AvgGroupSize reports the mean invocations per dispatched group.
func (s Stats) AvgGroupSize() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.Submitted) / float64(s.Groups)
}

// FaaSBatch is the scheduler.
type FaaSBatch struct {
	env policy.Env
	cfg Config
	// fns holds everything the scheduler keeps per function.
	fns map[string]*fnState
	// lastActive records each function's most recent arrival time
	// (Prewarm only).
	lastActive map[string]sim.Time
	// ticker is the pre-warming cadence (nil unless Prewarm).
	ticker *sim.Ticker
	// ctrl decides when each function's window closes.
	ctrl *dispatch.Controller
	// due is windowDue's scratch list of closing functions.
	due []string
	// acquire is what every FaaSBatch container is created with.
	acquire node.AcquireOptions
	// free lists drained groups for the next dispatch.
	free   *group
	stats  Stats
	closed bool
}

// fnState is one function's share of the scheduler.
type fnState struct {
	f    *FaaSBatch
	name string
	// pending is the group the open window is collecting; its backing
	// array changes hands with a dispatched group's and comes back empty.
	pending []pendingItem
	// window fires at the open window's deadline.
	window sim.Timer
	// owned tracks busy containers currently expanding groups, so later
	// windows can join them instead of cold-starting (§III-C: a cold
	// start occurs only when no keep-alive container exists).
	owned []*node.Container
	// pendingCreates counts in-flight container creations; attached holds
	// the groups waiting on them.
	pendingCreates int
	attached       []*group
}

var _ policy.Scheduler = (*FaaSBatch)(nil)

// pendingItem is one invocation waiting for its window to close and then,
// as a slot of its group's members, for its body to return.
type pendingItem struct {
	inv      *fnruntime.Invocation
	complete func(*fnruntime.Invocation)
	g        *group // set once the group expands
}

// group is one dispatched window's batch on its way through a container:
// waiting for the container (as its node.Acquirer, or attached to another
// group's creation), crossing the batch HTTP hop, then expanded, each
// member's slot serving as that body's fnruntime.Completer. Groups are
// recycled: the scheduler makes as many as it ever has in flight at once.
type group struct {
	f          *FaaSBatch
	st         *fnState
	members    []pendingItem
	dispatchAt sim.Time
	c          *node.Container
	// outstanding counts bodies yet to return, plus one held by run while
	// it is still handing members to the runner: a body that returns at
	// once must not settle the group under the loop.
	outstanding int
	runFn       func() // run, bound once
	next        *group
}

// New creates a FaaSBatch scheduler.
func New(env policy.Env, cfg Config) (*FaaSBatch, error) {
	if env.Eng == nil || env.Node == nil || env.Runner == nil {
		return nil, fmt.Errorf("core: env requires engine, node and runner")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: dispatch interval must be positive, got %v", cfg.Interval)
	}
	if cfg.HTTPLatency < 0 {
		return nil, fmt.Errorf("core: http latency must be non-negative, got %v", cfg.HTTPLatency)
	}
	if cfg.MaxPendingCreates < 1 {
		return nil, fmt.Errorf("core: max pending creates must be at least 1, got %d", cfg.MaxPendingCreates)
	}
	if cfg.Prewarm && cfg.PrewarmHorizon <= 0 {
		return nil, fmt.Errorf("core: prewarm horizon must be positive, got %v", cfg.PrewarmHorizon)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("core: max retries must be non-negative, got %d", cfg.MaxRetries)
	}
	ctrl, err := dispatch.New(dispatch.ConfigFor(cfg.AdaptiveDispatch, cfg.Interval, dispatch.Config{
		MinInterval:  cfg.MinInterval,
		MaxGroupSize: cfg.MaxGroupSize,
	}))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f := &FaaSBatch{
		env:        env,
		cfg:        cfg,
		fns:        make(map[string]*fnState),
		lastActive: make(map[string]sim.Time),
		ctrl:       ctrl,
		acquire:    node.AcquireOptions{CPULimit: cfg.CPULimit, Multiplex: cfg.Multiplex},
	}
	if cfg.Prewarm {
		// Windows close on their own events; pre-warming needs a cadence
		// to refresh its predictions on.
		t, err := sim.NewTicker(env.Eng, cfg.Interval, func(sim.Time) { f.prewarm() })
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		f.ticker = t
	}
	return f, nil
}

// Name implements policy.Scheduler.
func (f *FaaSBatch) Name() string { return "faasbatch" }

// Stats reports batching statistics.
func (f *FaaSBatch) Stats() Stats { return f.stats }

// state returns fn's record, making it at the function's first sight.
func (f *FaaSBatch) state(fn string) *fnState {
	st, ok := f.fns[fn]
	if !ok {
		st = &fnState{f: f, name: fn}
		st.window.Init(f.env.Eng, st.windowDue)
		f.fns[fn] = st
	}
	return st
}

// Submit implements policy.Scheduler: the Invoke Mapper appends the
// invocation to its function's group for the current window, and the
// dispatch controller decides whether the arrival dispatches immediately
// (idle fast-path, early close) or waits for its function's window.
func (f *FaaSBatch) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	f.stats.Submitted++
	fn := inv.Spec.Name
	st := f.state(fn)
	if f.cfg.Prewarm {
		f.lastActive[fn] = f.env.Eng.Now()
	}
	// The arrival is idle (no batching opportunity) when nothing of its
	// function waits, executes or boots: a window would hold it for
	// nothing unless the arrival process says company is coming. The
	// probe prunes the owned list, so it runs only when the policy reads
	// the answer: not under the fixed policy, and not with groups of one,
	// which close before idle matters.
	idle := f.ctrl.UsesIdle() && len(st.pending) == 0 && st.busyContainer() == nil && st.pendingCreates == 0
	st.enqueue(pendingItem{inv: inv, complete: complete})
	f.applyDecision(st, f.ctrl.Arrive(fn, f.env.Eng.Now().Duration(), idle))
}

// enqueue adds item to the group the open window is collecting. The
// buffer comes back nil from a fresh group's swap, and is then sized
// once from the dispatch estimator, as the live platform sizes its
// queues: the window's group appends without growing.
func (st *fnState) enqueue(item pendingItem) {
	if st.pending == nil {
		st.pending = make([]pendingItem, 0, max(8, st.f.ctrl.ExpectedGroup(st.name)))
	}
	st.pending = append(st.pending, item)
}

// applyDecision acts on the controller's verdict for a function's pending
// group: a wait arms (or, when the controller extended the deadline,
// re-arms) the window's timer; anything else hands the group to the
// Inline-Parallel Producer now.
func (f *FaaSBatch) applyDecision(st *fnState, d dispatch.Decision) {
	if d.Action == dispatch.ActionWait {
		if at := sim.Time(d.Deadline); !st.window.Active() || st.window.At() != at {
			st.window.ResetAt(at)
		}
		return
	}
	st.window.Stop()
	if len(st.pending) == 0 {
		return
	}
	switch d.Action {
	case dispatch.ActionFastPath:
		f.stats.FastPathDispatches++
	case dispatch.ActionEarlyClose:
		f.stats.EarlyCloses++
	case dispatch.ActionWindowClose:
		f.stats.WindowDispatches++
	}
	f.dispatchGroup(st)
}

// windowDue fires at the function's window deadline and closes the
// windows the controller's policy ends with it.
func (st *fnState) windowDue() {
	f := st.f
	if f.closed {
		return
	}
	f.due = f.ctrl.AppendClosing(f.due[:0], st.name)
	for _, fn := range f.due {
		f.applyDecision(f.state(fn), f.ctrl.WindowClosed(fn))
	}
}

// Close stops the scheduler after flushing pending groups.
func (f *FaaSBatch) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.cfg.Prewarm {
		// The flush is the last tick of the pre-warm cadence too.
		f.prewarm()
	}
	// Sorted function order keeps runs deterministic.
	var fns []string
	for fn, st := range f.fns {
		if len(st.pending) > 0 {
			fns = append(fns, fn)
		}
	}
	sort.Strings(fns)
	for _, fn := range fns {
		f.applyDecision(f.fns[fn], f.ctrl.WindowClosed(fn))
	}
	if f.ticker != nil {
		f.ticker.Stop()
	}
	return nil
}

// newGroup takes a recycled group, or makes one, for st's pending window.
func (f *FaaSBatch) newGroup(st *fnState) *group {
	g := f.free
	if g == nil {
		g = &group{f: f}
		g.runFn = g.run
	} else {
		f.free = g.next
		g.next = nil
	}
	g.st = st
	g.members, st.pending = st.pending, g.members
	g.dispatchAt = f.env.Eng.Now()
	return g
}

// recycle returns a group nobody waits on any more to the free list.
func (f *FaaSBatch) recycle(g *group) {
	clear(g.members)
	g.members = g.members[:0]
	g.st, g.c = nil, nil
	g.next = f.free
	f.free = g
}

// dispatchGroup is the Inline-Parallel Producer (§III-C): obtain one
// container for the whole group — an idle keep-alive container, a busy
// container already expanding earlier groups, or a fresh one — send the
// batch over HTTP, expand the invocations in parallel inside, and release
// the group's reservation when every invocation completed.
func (f *FaaSBatch) dispatchGroup(st *fnState) {
	g := f.newGroup(st)
	f.stats.Groups++
	if len(g.members) > f.stats.MaxGroupSize {
		f.stats.MaxGroupSize = len(g.members)
	}
	// An idle keep-alive container wins (warm start, via the node's warm
	// pool); otherwise a busy FaaSBatch container of the same function
	// accepts the group as additional threads; only when neither exists
	// does the group pay a cold start.
	if f.env.Node.WarmCount(st.name) == 0 {
		if c := st.busyContainer(); c != nil {
			c.CheckoutThread() // the joined group's batch reservation
			g.expand(node.AcquireResult{Container: c})
			return
		}
		if st.pendingCreates >= f.cfg.MaxPendingCreates {
			// The per-function scale-out bound is hit: wait for one of
			// the in-flight creations and expand on it once it boots.
			st.attached = append(st.attached, g)
			return
		}
		st.pendingCreates++
	}
	f.env.Node.Acquire(st.name, f.acquire, g)
}

// Acquired implements node.Acquirer: the group's container is ready.
func (g *group) Acquired(r node.AcquireResult) {
	st := g.st
	if r.Cold && st.pendingCreates > 0 {
		st.pendingCreates--
	}
	st.owned = append(st.owned, r.Container)
	g.expand(r)
	st.expandAttached(r.Container, false)
}

// expandAttached expands the groups that attached while c booted on it as
// additional thread batches; they waited out the remaining boot, which is
// their cold-start share. Each takes a reservation of its own, except the
// first when the creation's own (a pre-warm's) is still unspent.
func (st *fnState) expandAttached(c *node.Container, firstReserved bool) {
	waiting := st.attached
	st.attached = nil
	for i, ag := range waiting {
		if i > 0 || !firstReserved {
			c.CheckoutThread()
		}
		ag.expand(node.AcquireResult{
			Container: c,
			Cold:      true,
			BootTime:  st.f.env.Eng.Now().Sub(ag.dispatchAt),
		})
	}
}

// prewarm creates a container ahead of every recently active function
// that currently has none (warm, busy or booting). The pre-warmed
// container parks into the node's keep-alive pool, so the next group for
// that function starts warm even if its previous container was evicted
// between bursts.
func (f *FaaSBatch) prewarm() {
	now := f.env.Eng.Now()
	fns := make([]string, 0, len(f.lastActive))
	for fn := range f.lastActive {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if now.Sub(f.lastActive[fn]) > f.cfg.PrewarmHorizon {
			delete(f.lastActive, fn) // idle past the horizon: forget it
			continue
		}
		if f.env.Node.WarmCount(fn) > 0 {
			// Keep-warm touch: a warm acquire+release resets the
			// container's keep-alive clock, so predicted-active
			// functions never lose their capacity to eviction.
			f.env.Node.Acquire(fn, node.AcquireOptions{}, node.AcquireFunc(func(r node.AcquireResult) {
				r.Container.ReturnThread()
			}))
			f.stats.KeepWarmTouches++
			continue
		}
		st := f.state(fn)
		if st.busyContainer() != nil || st.pendingCreates > 0 {
			continue // capacity already exists or is coming up
		}
		st.pendingCreates++
		f.stats.Prewarms++
		f.env.Node.Acquire(fn, f.acquire, node.AcquireFunc(func(r node.AcquireResult) {
			if st.pendingCreates > 0 {
				st.pendingCreates--
			}
			// Serve any groups that attached while this container booted;
			// otherwise park it warm for the next window.
			if len(st.attached) == 0 {
				r.Container.ReturnThread()
				return
			}
			st.owned = append(st.owned, r.Container)
			st.expandAttached(r.Container, true)
		}))
	}
}

// busyContainer returns a ready busy container for the function, pruning
// handles that parked or were evicted since.
func (st *fnState) busyContainer() *node.Container {
	list := st.owned
	kept := list[:0]
	var found *node.Container
	for _, c := range list {
		if c.State() != node.Busy {
			continue // parked into the warm pool or evicted
		}
		kept = append(kept, c)
		if found == nil {
			found = c
		}
	}
	for i := len(kept); i < len(list); i++ {
		list[i] = nil
	}
	st.owned = kept
	return found
}

// expand runs the group inside its container: record the latency
// decomposition, pay the batch HTTP hop, execute all invocations as
// concurrent threads, and return the group's reservation when the last
// one finishes.
func (g *group) expand(r node.AcquireResult) {
	f := g.f
	for i := range g.members {
		m := &g.members[i]
		m.g = g
		// Scheduling latency: window wait + engine-queue wait + the
		// batch HTTP hop; cold start is separated per §IV.
		m.inv.Sched = g.dispatchAt.Sub(m.inv.Arrive) + r.QueueWait + f.cfg.HTTPLatency
		m.inv.ColdStart = r.BootTime
	}
	g.c = r.Container
	if f.cfg.HTTPLatency > 0 {
		f.env.Eng.Schedule(f.cfg.HTTPLatency, g.runFn)
		return
	}
	g.run()
}

// run lands the batch HTTP request: every member starts its body.
func (g *group) run() {
	f := g.f
	if g.c.State() == node.Evicted {
		// The container crashed between dispatch and the batch HTTP
		// request landing (a fault from a concurrent group killed it).
		// Re-batch the whole group into the next window; it expands on
		// a replacement container there.
		f.stats.GroupRedispatches++
		for i := range g.members {
			f.retryItem(g.members[i])
		}
		f.recycle(g)
		return
	}
	g.outstanding = len(g.members) + 1
	for i := range g.members {
		m := &g.members[i]
		if err := f.env.Runner.Execute(m.inv, g.c, m); err != nil {
			// The container crashed under us (fault injection) or was
			// torn down between acquisition and execution: send the
			// invocation through the bounded retry path rather than
			// drop it.
			g.outstanding--
			f.retryItem(*m)
		}
	}
	g.settle()
}

// Completed implements fnruntime.Completer on a group's member slot.
func (m *pendingItem) Completed(done *fnruntime.Invocation) {
	m.complete(done)
	m.g.settle()
}

// settle counts one body (or run itself) out. The last one returns the
// batch HTTP request: once every group drained, the container parks in
// the warm pool for the next window.
func (g *group) settle() {
	g.outstanding--
	if g.outstanding == 0 {
		g.c.ReturnThread()
		g.f.recycle(g)
	}
}

// retryItem re-batches one invocation after a container fault: it rides
// the next dispatch window (the window interval acts as the retry
// backoff) on a fresh or replacement container. An invocation that
// already consumed its retry budget completes immediately with
// Failed set — invocations are never silently lost.
func (f *FaaSBatch) retryItem(item pendingItem) {
	inv := item.inv
	if inv.Attempts >= f.cfg.MaxRetries {
		inv.Failed = true
		f.stats.Failed++
		item.complete(inv)
		return
	}
	inv.Attempts++
	inv.Retries = inv.Attempts
	f.stats.Retries++
	// Append directly to the window rather than re-Submit: Submitted
	// counts unique invocations, not attempts (Stats.Submitted ==
	// completed + failed must hold at quiescence).
	st := f.state(inv.Spec.Name)
	st.enqueue(item)
	if !f.closed {
		// A retry must ride a window like any pending call, but must not
		// skew the arrival-rate estimate: EnsureOpen arms a window-close
		// event without observing an arrival.
		f.applyDecision(st, f.ctrl.EnsureOpen(st.name, f.env.Eng.Now().Duration()))
	}
}
