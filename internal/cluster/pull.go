package cluster

import (
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/pullsched"
)

// pullDriver runs the shared pullsched.Core against the simulated
// fleet: Submit enqueues instead of picking a node, grants dispatch to
// node schedulers, and completions ack leases. Membership transitions
// (zone outages, autoscale drain/retire) flow in through the picker's
// onDown hook, so a draining node stops pulling exactly like a draining
// live worker. The engine is single-threaded, so the core needs no
// locking here (the live driver's analogue takes a mutex).
type pullDriver struct {
	c    *Cluster
	core *pullsched.Core
	// pending holds admitted invocations awaiting (or holding) a lease,
	// by lease ID (inv.Route.Lease).
	pending map[int64]*fnruntime.Invocation
	nextID  int64
	shed    uint64
	// bufs holds one copy of the core's grants per nesting level of
	// hold: the core refills its grant slice on every call, and a
	// submitter's completion callback (which may submit the next
	// invocation) or a scheduler's Submit (which may complete one on the
	// spot) can call it again while an outer level still walks its
	// grants.
	bufs  [][]pullsched.Grant
	depth int
}

// initPull wires the pull scheduler over the fleet. Called before
// initAutoscale so autoscale's initial standby mark-downs reach the
// core as eligibility flips.
func (c *Cluster) initPull(pcfg *pullsched.Config) error {
	cfg := pullsched.Config{}
	if pcfg != nil {
		cfg = *pcfg
	}
	cfg.Workers = len(c.nodes)
	core, err := pullsched.New(cfg)
	if err != nil {
		return err
	}
	d := &pullDriver{
		c:       c,
		core:    core,
		pending: make(map[int64]*fnruntime.Invocation),
	}
	c.pull = d
	c.sink = d.completed
	c.picker.onDown = d.membership
	return nil
}

// submit admits one invocation: enqueue, then dispatch whatever grants
// the arrival unlocked. A depth-bound shed completes the invocation
// immediately as a failure — the sim analogue of the live router's 429.
func (d *pullDriver) submit(inv *fnruntime.Invocation) {
	d.nextID++
	id := d.nextID
	inv.Route.Lease = id
	d.pending[id] = inv
	gs, shed := d.core.Enqueue(id, inv.Spec.Name, 0)
	if shed {
		delete(d.pending, id)
		d.shed++
		inv.Failed = true
		inv.Route.Done(inv)
		return
	}
	d.dispatch(d.hold(gs))
}

// hold copies the core's grants into the next nesting level's buffer
// and enters that level; dispatch leaves it.
func (d *pullDriver) hold(gs []pullsched.Grant) []pullsched.Grant {
	if d.depth == len(d.bufs) {
		d.bufs = append(d.bufs, nil)
	}
	buf := append(d.bufs[d.depth][:0], gs...)
	d.bufs[d.depth] = buf
	d.depth++
	return buf
}

// dispatch hands held grants to their leased node's scheduler, in grant
// order, each nested dispatch before the rest of its parent's.
func (d *pullDriver) dispatch(held []pullsched.Grant) {
	for _, g := range held {
		if inv, ok := d.pending[g.ID]; ok {
			d.c.dispatch(inv, g.Worker)
		}
	}
	d.depth--
}

// completed is the schedulers' completion sink under pull: it acks the
// lease, which may pull further queued work — the dispatch loop of the
// worker-pull protocol.
func (d *pullDriver) completed(done *fnruntime.Invocation) {
	d.c.settle(done)
	id := done.Route.Lease
	next := d.hold(d.core.Complete(id, 0))
	delete(d.pending, id)
	done.Route.Done(done)
	d.dispatch(next)
}

// membership mirrors a picker mark-down/mark-up into core eligibility;
// a mark-up may immediately drain queued work (scale-from-zero wake).
func (d *pullDriver) membership(i int, down bool) {
	d.dispatch(d.hold(d.core.SetWorker(i, !down, 0)))
}

// PullEnabled reports whether the cluster routes through the pull
// scheduler.
func (c *Cluster) PullEnabled() bool { return c.pull != nil }

// PullStats snapshots the pull core's counters (zero value when pull
// balancing is off).
func (c *Cluster) PullStats() pullsched.Stats {
	if c.pull == nil {
		return pullsched.Stats{}
	}
	return c.pull.core.Stats()
}

// PullShed counts invocations refused at the queue-depth bound.
func (c *Cluster) PullShed() uint64 {
	if c.pull == nil {
		return 0
	}
	return c.pull.shed
}
