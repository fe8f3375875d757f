package cluster

import (
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/sim"
)

// pullDriver runs the shared pullsched.Core against the simulated
// fleet: Submit enqueues instead of picking a node, grants dispatch to
// node schedulers, and completions ack leases. Membership transitions
// (zone outages, autoscale drain/retire) flow in through the picker's
// onDown hook, so a draining node stops pulling exactly like a draining
// live worker. The engine is single-threaded, so the core needs no
// locking here (the live driver's analogue takes a mutex).
type pullDriver struct {
	c       *Cluster
	core    *pullsched.Core
	pending map[int64]*pendingPull
	nextID  int64
	shed    uint64
}

// pendingPull is an admitted invocation awaiting (or holding) a lease.
type pendingPull struct {
	inv      *fnruntime.Invocation
	complete func(*fnruntime.Invocation)
	start    sim.Time
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
		pending: make(map[int64]*pendingPull),
	}
	c.pull = d
	c.picker.onDown = d.membership
	return nil
}

// submit admits one invocation: enqueue, then dispatch whatever grants
// the arrival unlocked. A depth-bound shed completes the invocation
// immediately as a failure — the sim analogue of the live router's 429.
func (d *pullDriver) submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation), start sim.Time) {
	d.nextID++
	id := d.nextID
	off := start.Duration()
	d.pending[id] = &pendingPull{inv: inv, complete: complete, start: start}
	gs, shed := d.core.Enqueue(id, inv.Spec.Name, off)
	if shed {
		delete(d.pending, id)
		d.shed++
		inv.Rec.Failed = true
		complete(inv)
		return
	}
	d.dispatch(gs)
}

// dispatch hands granted invocations to their leased node's scheduler.
// The completion callback acks the lease, which may pull further queued
// work — the dispatch loop of the worker-pull protocol.
func (d *pullDriver) dispatch(gs []pullsched.Grant) {
	for _, g := range gs {
		p, ok := d.pending[g.ID]
		if !ok {
			continue
		}
		id, w := g.ID, g.Worker
		d.c.picker.inflight[w]++
		d.c.picker.routed[w]++
		d.c.scheds[w].Submit(p.inv, func(done *fnruntime.Invocation) {
			d.c.picker.inflight[w]--
			if d.c.scaler != nil {
				d.c.scaler.completed(w, d.c.eng.Now().Sub(p.start))
			}
			next := d.core.Complete(id, d.c.eng.Now().Duration())
			delete(d.pending, id)
			p.complete(done)
			d.dispatch(next)
		})
	}
}

// membership mirrors a picker mark-down/mark-up into core eligibility;
// a mark-up may immediately drain queued work (scale-from-zero wake).
func (d *pullDriver) membership(i int, down bool) {
	d.dispatch(d.core.SetWorker(i, !down, d.c.eng.Now().Duration()))
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
