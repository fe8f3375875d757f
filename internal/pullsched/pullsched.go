// Package pullsched is the clock-agnostic decision core for the
// pull-based late-binding router policy (-policy=pull).
//
// The push consistent-hash policy binds a function to a worker at
// arrival time, so a hot function queues behind its hash slot even when
// the rest of the fleet sits idle. Pull scheduling inverts the binding:
// arrivals park in per-function FIFO queues, and a worker with free
// lease capacity pulls a batch from the deepest queue — hot functions
// late-bind to the least-loaded worker at the moment capacity frees,
// exactly the Hiku/Archipelago shape.
//
// The core is shared verbatim by the cluster simulator
// (internal/cluster, Balancing=Pull) and the live router
// (internal/router, Config.Policy="pull"). It reads no time at all: its
// decisions depend only on the order of events. All tie-breaks are total
// orders (queue depth then head admission sequence; worker load then
// index), so a given event sequence yields exactly one grant sequence,
// whichever driver feeds it.
//
// Lease protocol: a grant leases one invocation to one worker, and the
// worker's holder settles it — the Hiku shape. The driver acks with
// Complete, requeues with Fail (worker died mid-lease — the item returns
// to the front of its queue and prefers a different worker on
// re-grant), or drops with Abort (the caller gave up). Every lease
// holder settles: the live router's forwarding goroutine in its deferred
// Done, bounded by the forward timeout, and the simulator on completion.
// So a lease never expires, and an invocation holds at most one grant at
// a time. Each requeue produces exactly one replacement grant, so the
// zero-lost-invocations guarantee survives worker death mid-lease.
//
// The off parameter of Enqueue, Complete, Fail, Abort and SetWorker is
// ignored; it stays only for callers that still pass one.
package pullsched

import (
	"fmt"
	"time"
)

// Defaults for Config's zero values.
const (
	DefaultBatchSize = 4
	DefaultCapacity  = 8
)

// Config parameterises a Core. The zero value of every field but
// Workers is usable.
type Config struct {
	// Workers is the fleet slot count; slot i is worker i in the
	// driver's ordering (node i in the sim, Config.Workers[i] live).
	Workers int
	// QueueDepth bounds each function's queue; an arrival past the
	// bound is shed (the pull policy's admission control — depth-based,
	// not per-slot). 0 means unbounded.
	QueueDepth int
	// BatchSize caps the invocations one pull grants from a single
	// queue to a single worker (default DefaultBatchSize) — the batching
	// locality knob: a pulled batch lands in one worker's dispatch
	// window.
	BatchSize int
	// Capacity is the concurrent-lease cap per worker (default
	// DefaultCapacity).
	Capacity int
}

// withDefaults resolves zero values.
func (cfg Config) withDefaults() Config {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return cfg
}

// Grant is one scheduling decision: invocation ID leased to Worker.
type Grant struct {
	// Seq is the grant's position in the core's decision sequence,
	// starting at 1.
	Seq uint64
	// ID is the invocation being leased.
	ID int64
	// Fn is the invocation's function.
	Fn string
	// Worker is the leased worker slot.
	Worker int
	// Requeue marks a re-dispatch of a failed lease.
	Requeue bool
}

// Stats aggregates the core's lifetime counters plus current depths.
type Stats struct {
	// Enqueued counts accepted arrivals.
	Enqueued uint64
	// Granted counts leases issued (including re-dispatches).
	Granted uint64
	// Requeues counts failed leases returned to their queue.
	Requeues uint64
	// Shed counts arrivals refused at the QueueDepth bound.
	Shed uint64
	// Completed counts acked leases.
	Completed uint64
	// Aborted counts invocations the caller dropped.
	Aborted uint64
	// Queued is the current total queue depth across functions.
	Queued int
	// Leases is the current outstanding lease count.
	Leases int
}

// item is one queued invocation. Queues and leases hold items by
// value, so admitting, granting and requeueing one allocates nothing.
type item struct {
	id int64
	fn string
	// seq is the admission sequence, the head tie-break. Requeued items
	// keep their original seq, so a re-dispatched invocation never loses
	// its place to later arrivals.
	seq      uint64
	requeues int
	// lastWorker is the slot the item's last failed lease ran on (-1 if
	// never leased); re-grants prefer a different worker.
	lastWorker int
}

// fnQueue is one function's FIFO: items[head:] are queued, oldest first.
// A queue that empties leaves the Core's queue map for its free list with
// its capacity, so the next function to queue reuses it; keeping it in
// the map instead would make deepest scan every function ever seen.
type fnQueue struct {
	fn    string
	items []item
	head  int
}

// len reports the queue's depth.
func (q *fnQueue) len() int { return len(q.items) - q.head }

// push appends it at the back, first sliding the queue down over the
// popped prefix when the backing array is full, so a queue that never
// empties does not grow without bound.
func (q *fnQueue) push(it item) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
}

// pushFront inserts it at the front: into the popped prefix when there
// is one, otherwise by shifting the queue up one slot.
func (q *fnQueue) pushFront(it item) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = it
		return
	}
	q.items = append(q.items, item{})
	copy(q.items[1:], q.items)
	q.items[0] = it
}

// pop removes and returns the front item.
func (q *fnQueue) pop() item {
	it := q.items[q.head]
	q.items[q.head] = item{}
	q.head++
	return it
}

// lease is one outstanding grant.
type lease struct {
	it     item
	worker int
}

// workerState tracks one slot.
type workerState struct {
	eligible bool
	inflight int
}

// Core holds the pull scheduler's queues, leases and worker states. It
// is not internally locked: the sim driver runs on the single-threaded
// engine and the live driver serialises calls under its own mutex, the
// same discipline as internal/autoscale.Controller.
//
// Every method that returns grants returns them in one slice the Core
// owns and refills on its next call: a driver consumes the grants (or
// copies them) before it calls the Core again. Once its queues, lease
// map and that slice have grown to a workload's peak, the Core allocates
// nothing.
type Core struct {
	cfg     Config
	queues  map[string]*fnQueue // non-empty queues by function
	free    []*fnQueue          // emptied queues, capacity kept
	workers []workerState
	leases  map[int64]lease
	queued  int
	admSeq  uint64
	gntSeq  uint64
	stats   Stats
	grants  []Grant // the returned grants, reused per call
}

// New builds a core for cfg.Workers slots, all initially eligible.
func New(cfg Config) (*Core, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("pullsched: worker count must be positive, got %d", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("pullsched: queue depth must be >= 0, got %d", cfg.QueueDepth)
	}
	cfg = cfg.withDefaults()
	c := &Core{
		cfg:     cfg,
		queues:  make(map[string]*fnQueue),
		workers: make([]workerState, cfg.Workers),
		leases:  make(map[int64]lease),
	}
	for i := range c.workers {
		c.workers[i].eligible = true
	}
	return c, nil
}

// Config returns the resolved configuration (defaults applied).
func (c *Core) Config() Config { return c.cfg }

// queue returns fn's queue, taking one off the free list when fn has
// none queued.
func (c *Core) queue(fn string) *fnQueue {
	if q := c.queues[fn]; q != nil {
		return q
	}
	var q *fnQueue
	if n := len(c.free); n > 0 {
		q, c.free = c.free[n-1], c.free[:n-1]
		if poison && (len(q.items) != 0 || q.head != 0) {
			panic(fmt.Sprintf("pullsched: free-listed queue (last %q) holds %d items", q.fn, len(q.items)-q.head))
		}
	} else {
		q = &fnQueue{}
	}
	q.fn = fn
	c.queues[fn] = q
	return q
}

// retire moves emptied queue q to the free list.
func (c *Core) retire(q *fnQueue) {
	delete(c.queues, q.fn)
	q.items, q.head = q.items[:0], 0
	c.free = append(c.free, q)
}

// Enqueue admits invocation id of function fn. It returns the grants
// the arrival unlocked (the arrival itself when a worker has capacity)
// and shed=true when fn's queue is at its depth bound — the item was
// refused and must be answered with an overload error.
func (c *Core) Enqueue(id int64, fn string, _ time.Duration) ([]Grant, bool) {
	if q := c.queues[fn]; c.cfg.QueueDepth > 0 && q != nil && q.len() >= c.cfg.QueueDepth {
		c.stats.Shed++
		return nil, true
	}
	c.admSeq++
	c.queue(fn).push(item{id: id, fn: fn, seq: c.admSeq, lastWorker: -1})
	c.queued++
	c.stats.Enqueued++
	return c.pull(), false
}

// Complete acks invocation id's lease: the worker finished it. Freed
// capacity pulls more work. An id that holds no lease is ignored.
func (c *Core) Complete(id int64, _ time.Duration) []Grant {
	l, ok := c.leases[id]
	if !ok {
		return nil
	}
	c.dropLease(l)
	c.stats.Completed++
	return c.pull()
}

// Fail requeues invocation id after its worker failed mid-lease: the
// item returns to the front of its function's queue keeping its
// admission sequence, and its re-grant prefers a different worker. The
// freed capacity (and the requeued item itself) may grant immediately.
// An id that holds no lease is ignored.
func (c *Core) Fail(id int64, _ time.Duration) []Grant {
	l, ok := c.leases[id]
	if !ok {
		return nil
	}
	c.dropLease(l)
	c.requeue(l.it)
	return c.pull()
}

// Abort withdraws invocation id entirely, leased or still queued — the
// caller gave up (context cancelled, attempts exhausted). Freed capacity
// pulls more work.
func (c *Core) Abort(id int64, _ time.Duration) []Grant {
	if l, ok := c.leases[id]; ok {
		c.dropLease(l)
		c.stats.Aborted++
		return c.pull()
	}
	if c.dequeue(id) {
		c.stats.Aborted++
	}
	return nil
}

// SetWorker flips slot w's routing eligibility: draining or down
// workers stop pulling (their outstanding leases keep running until the
// driver acks or fails them); a newly eligible worker immediately
// drains queued work — the scale-from-zero wake path.
func (c *Core) SetWorker(w int, eligible bool, _ time.Duration) []Grant {
	if w < 0 || w >= len(c.workers) || c.workers[w].eligible == eligible {
		return nil
	}
	c.workers[w].eligible = eligible
	if !eligible {
		return nil
	}
	return c.pull()
}

// Stats snapshots the counters.
func (c *Core) Stats() Stats {
	st := c.stats
	st.Queued = c.queued
	st.Leases = len(c.leases)
	return st
}

// dropLease removes l and releases its worker capacity.
func (c *Core) dropLease(l lease) {
	delete(c.leases, l.it.id)
	c.workers[l.worker].inflight--
}

// requeue returns it to the front of its function's queue.
func (c *Core) requeue(it item) {
	it.requeues++
	c.stats.Requeues++
	c.queue(it.fn).pushFront(it)
	c.queued++
}

// dequeue withdraws a queued copy of id, reporting whether it existed.
func (c *Core) dequeue(id int64) bool {
	for _, q := range c.queues {
		for i := q.head; i < len(q.items); i++ {
			if q.items[i].id != id {
				continue
			}
			last := len(q.items) - 1
			copy(q.items[i:], q.items[i+1:])
			q.items[last] = item{}
			q.items = q.items[:last]
			c.queued--
			if q.len() == 0 {
				c.retire(q)
			}
			return true
		}
	}
	return false
}

// pull is the late-binding step: while any queue holds work and any
// eligible worker has lease capacity, grant up to BatchSize items from
// the deepest queue (tie: earliest head admission sequence) to the
// least-loaded eligible worker (tie: lowest index). The whole batch
// goes to one worker so it lands in one dispatch window, preserving the
// batching locality the hash policy gets from function pinning.
func (c *Core) pull() []Grant {
	c.grants = c.grants[:0]
	for {
		if c.target(-1) < 0 {
			// No worker has lease capacity: no scan can grant anything.
			return c.grants
		}
		q := c.deepest()
		if q == nil {
			return c.grants
		}
		w := c.target(q.items[q.head].lastWorker)
		if w < 0 {
			return c.grants
		}
		n := c.cfg.BatchSize
		if room := c.cfg.Capacity - c.workers[w].inflight; room < n {
			n = room
		}
		if q.len() < n {
			n = q.len()
		}
		for i := 0; i < n; i++ {
			it := q.pop()
			c.queued--
			c.gntSeq++
			c.grants = append(c.grants, Grant{
				Seq:     c.gntSeq,
				ID:      it.id,
				Fn:      it.fn,
				Worker:  w,
				Requeue: it.requeues > 0,
			})
			it.lastWorker = w
			c.leases[it.id] = lease{it: it, worker: w}
			c.workers[w].inflight++
			c.stats.Granted++
		}
		if q.len() == 0 {
			c.retire(q)
		}
	}
}

// deepest returns the queue to pull from: maximum depth, ties broken by
// the earliest head admission sequence (a total order — admission
// sequences are unique — so map iteration order never shows through).
func (c *Core) deepest() *fnQueue {
	var best *fnQueue
	for _, q := range c.queues {
		if best == nil || q.len() > best.len() ||
			(q.len() == best.len() && q.items[q.head].seq < best.items[best.head].seq) {
			best = q
		}
	}
	return best
}

// target picks the grant worker: eligible with spare capacity, minimum
// inflight, lowest index on ties. A re-granted item's previous worker
// (exclude) is avoided when any alternative exists — that is what makes
// a requeue a failover rather than a retry against the same dead
// worker.
func (c *Core) target(exclude int) int {
	best := -1
	for i := range c.workers {
		w := &c.workers[i]
		if !w.eligible || w.inflight >= c.cfg.Capacity || i == exclude {
			continue
		}
		if best < 0 || w.inflight < c.workers[best].inflight {
			best = i
		}
	}
	if best < 0 && exclude >= 0 && exclude < len(c.workers) {
		if w := &c.workers[exclude]; w.eligible && w.inflight < c.cfg.Capacity {
			best = exclude
		}
	}
	return best
}
