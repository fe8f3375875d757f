package node

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/sim"
)

// AcquireOptions configures container acquisition.
type AcquireOptions struct {
	// CPULimit is the cpuset cap for a newly created container
	// (<= 0 means unlimited). Ignored on a warm hit, matching docker's
	// behaviour of fixing limits at creation.
	CPULimit float64
	// Multiplex equips a newly created container with a Resource
	// Multiplexer cache.
	Multiplex bool
}

// AcquireResult reports how a container was obtained.
type AcquireResult struct {
	// Container is the acquired container, already checked out as busy
	// for the caller's bookkeeping to fill.
	Container *Container
	// Cold reports whether a new container had to be created.
	Cold bool
	// QueueWait is the time spent waiting for a container-engine slot
	// (part of scheduling latency).
	QueueWait time.Duration
	// BootTime is the container boot duration (the cold-start latency;
	// zero on a warm start).
	BootTime time.Duration
}

// Acquirer is told when the container it asked Acquire for is ready. A
// scheduler that acquires on its hot path passes an object it already
// holds (a pooled group, say) rather than a fresh closure.
type Acquirer interface {
	Acquired(AcquireResult)
}

// AcquireFunc adapts a function to an Acquirer.
type AcquireFunc func(AcquireResult)

// Acquired implements Acquirer.
func (f AcquireFunc) Acquired(r AcquireResult) { f(r) }

// createReq is a queued container creation, kept by value in the node's
// queue and, while it is served, on its container.
type createReq struct {
	fn       string
	opts     AcquireOptions
	to       Acquirer
	enqueued sim.Time
}

// Node is the worker VM.
type Node struct {
	eng  *sim.Engine
	cfg  Config
	pool *cpusched.Pool
	// sysGroup hosts container-engine CPU work (creation): it contends
	// with function execution, uncapped like the dockerd process.
	sysGroup *cpusched.Group

	memUsed int64
	memPeak int64

	warm map[string][]*Container
	live int

	// keepAlive fires at the deadline of the oldest parked container.
	// KeepAlive is one delay for the whole node, so park order is expiry
	// order: one timer over the FIFO of parked containers does the work
	// of a timer per container, and each container's deadline, reserved
	// when it parked, keeps its expiry where its own timer would have put
	// it among the events due at that instant.
	keepAlive              sim.Timer
	parkedHead, parkedTail *Container

	// createQueue[createHead:] are the creations waiting for an engine
	// slot, oldest first.
	createQueue    []createReq
	createHead     int
	createInflight int

	seq                  int
	totalCreated         int
	coldStarts           int
	warmStarts           int
	evictions            int
	bootFailures         int
	crashes              int
	slowBoots            int
	clientBytesAllocated int64

	// liveIntegral accumulates container-seconds of live containers, used
	// to charge per-container background CPU.
	liveIntegral   float64
	lastLiveChange sim.Time
}

// New creates a worker node. The zero-value fields of cfg are not
// defaulted; use DefaultConfig as the base.
func New(eng *sim.Engine, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool, err := cpusched.NewPool(eng, cfg.Cores, cfg.Discipline)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		eng:  eng,
		cfg:  cfg,
		pool: pool,
		warm: make(map[string][]*Container),
	}
	n.sysGroup = pool.NewGroup("engine", 0)
	n.keepAlive.Init(eng, n.keepAliveExpired)
	return n, nil
}

// Config reports the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Pool exposes the CPU pool (for the resource sampler's busy integral).
func (n *Node) Pool() *cpusched.Pool { return n.pool }

// MemUsed reports current memory usage, including the constant platform
// base.
func (n *Node) MemUsed() int64 { return n.cfg.BaseMemBytes + n.memUsed }

// MemPeak reports the peak memory usage observed, including the constant
// platform base.
func (n *Node) MemPeak() int64 { return n.cfg.BaseMemBytes + n.memPeak }

// LiveContainers reports containers that are starting, idle or busy.
func (n *Node) LiveContainers() int { return n.live }

// TotalCreated reports the number of containers provisioned so far — the
// paper's "number of provisioned containers" metric.
func (n *Node) TotalCreated() int { return n.totalCreated }

// ColdStarts reports acquisition requests served by creating a container.
func (n *Node) ColdStarts() int { return n.coldStarts }

// WarmStarts reports acquisition requests served from the warm pool.
func (n *Node) WarmStarts() int { return n.warmStarts }

// Evictions reports keep-alive evictions performed.
func (n *Node) Evictions() int { return n.evictions }

// BootFailures reports container boots that failed and were retried.
func (n *Node) BootFailures() int { return n.bootFailures }

// Crashes reports containers killed by fault injection.
func (n *Node) Crashes() int { return n.crashes }

// SlowBoots reports boots whose latency was inflated by fault injection.
func (n *Node) SlowBoots() int { return n.slowBoots }

// ClientBytesAllocated reports cumulative client-instance memory charged
// (the Fig. 14d numerator).
func (n *Node) ClientBytesAllocated() int64 { return n.clientBytesAllocated }

// advanceLiveIntegral folds the elapsed live-container time into the
// integral before the live count changes.
func (n *Node) advanceLiveIntegral() {
	now := n.eng.Now()
	n.liveIntegral += float64(n.live) * now.Sub(n.lastLiveChange).Seconds()
	n.lastLiveChange = now
}

// BusyCoreSeconds reports total CPU consumption including the background
// charge of live containers (their container-seconds times
// Config.ContainerIdleCPU) — the quantity the once-per-second resource
// sampler records.
func (n *Node) BusyCoreSeconds() float64 {
	busy := n.pool.BusyCoreSeconds()
	n.advanceLiveIntegral()
	return busy + n.liveIntegral*n.cfg.ContainerIdleCPU
}

func (n *Node) allocMem(bytes int64) {
	n.memUsed += bytes
	if n.memUsed > n.memPeak {
		n.memPeak = n.memUsed
	}
}

func (n *Node) freeMem(bytes int64) {
	n.memUsed -= bytes
	if n.memUsed < 0 {
		n.memUsed = 0
	}
}

// Acquire obtains a container for fn: a warm keep-alive container when one
// is idle, otherwise a fresh container through the engine's creation
// pipeline. to is told (in virtual time; at once on a warm hit) when the
// container is ready; the container is handed over in the Busy state with
// one thread checked out.
func (n *Node) Acquire(fn string, opts AcquireOptions, to Acquirer) {
	if list := n.warm[fn]; len(list) > 0 {
		c := list[len(list)-1]
		list[len(list)-1] = nil
		n.warm[fn] = list[:len(list)-1]
		n.unpark(c)
		c.CheckoutThread()
		n.warmStarts++
		to.Acquired(AcquireResult{Container: c})
		return
	}
	n.coldStarts++
	n.createQueue = append(n.createQueue, createReq{
		fn:       fn,
		opts:     opts,
		to:       to,
		enqueued: n.eng.Now(),
	})
	n.pumpCreations()
}

// pumpCreations starts queued creations while engine slots are free.
// Every change to createInflight or createQueue is followed by a call,
// so nothing else can unblock a creation.
func (n *Node) pumpCreations() {
	for n.createInflight < n.cfg.CreateConcurrency && n.createHead < len(n.createQueue) {
		req := n.createQueue[n.createHead]
		n.createQueue[n.createHead] = createReq{}
		n.createHead++
		if rest := len(n.createQueue) - n.createHead; rest <= n.createHead {
			// No more than half the buffer is still queued: slide it to
			// the front, so the buffer is reused instead of regrown.
			copy(n.createQueue, n.createQueue[n.createHead:])
			clear(n.createQueue[rest:])
			n.createQueue = n.createQueue[:rest]
			n.createHead = 0
		}
		n.createInflight++
		n.startCreation(req)
	}
}

// bootPhase is what a container being created waits on.
type bootPhase uint8

const (
	bootCreate bootPhase = iota + 1 // the engine's creation work, on the node's system group
	bootImage                       // the fixed boot latency (image setup)
	bootInit                        // the runtime's init work, in the container's own group
)

// startCreation runs one container creation: CPU work on the engine group,
// the fixed boot latency, then the runtime's init work. The steps are a
// state machine kept on the container, advanced by its one continuation.
func (n *Node) startCreation(req createReq) {
	n.seq++
	c := &Container{
		node:      n,
		id:        containerID(n.seq, req.fn),
		fn:        req.fn,
		state:     Starting,
		req:       req,
		bootStart: n.eng.Now(),
		boot:      bootCreate,
	}
	c.step = c.advance
	n.advanceLiveIntegral()
	n.live++
	n.totalCreated++
	n.allocMem(n.cfg.ContainerMem)
	n.sysGroup.Start(&c.task, n.cfg.CreateCPUWork, c.step)
}

// containerID formats "c%04d-<fn>" without boxing its operands.
func containerID(seq int, fn string) string {
	var buf [48]byte
	b := append(buf[:0], 'c')
	for p := 1000; p > 1 && seq < p; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, '-')
	b = append(b, fn...)
	return string(b)
}

// advance is the creation's continuation: the engine's CPU work, the boot
// latency and the init work all land here, and the phase says which one
// it was.
func (c *Container) advance() {
	n := c.node
	switch c.boot {
	case bootCreate:
		// The engine slot frees once the CPU-bound part completes; the
		// remaining boot latency (image setup) overlaps with other
		// creations.
		n.createInflight--
		n.pumpCreations()
		bootLatency := n.cfg.ColdStartLatency
		if n.cfg.Chaos.Should(chaos.SlowColdStart) {
			bootLatency = time.Duration(float64(bootLatency) * n.cfg.Chaos.ColdStartFactor())
			n.slowBoots++
		}
		c.boot = bootImage
		n.eng.Schedule(bootLatency, c.step)
	case bootImage:
		// The label is for diagnostics; the container's id names both.
		c.group = n.pool.NewGroup(c.id, c.req.opts.CPULimit)
		c.gilGroup = n.pool.NewGroup(c.id, 1)
		// Runtime init (interpreter, server, SDK imports) burns CPU
		// inside the container's own group, contending node-wide.
		if n.cfg.ContainerInitCPUWork > 0 {
			c.boot = bootInit
			c.group.Start(&c.task, n.cfg.ContainerInitCPUWork, c.step)
			return
		}
		n.ready(c)
	case bootInit:
		n.ready(c)
	}
}

// ready ends a boot: a failed one tears the container down and queues its
// request again, a good one hands the container over.
func (n *Node) ready(c *Container) {
	if n.cfg.Chaos.Should(chaos.BootFailure) {
		// The boot failed after its init phase: tear the carcass down and
		// retry the creation. The caller's wait so far is preserved in the
		// request's enqueue time, so the eventual success reports the full
		// queue delay.
		n.bootFailures++
		n.teardown(c)
		n.createQueue = append(n.createQueue, c.req)
		n.pumpCreations()
		return
	}
	c.CheckoutThread()
	c.req.to.Acquired(AcquireResult{
		Container: c,
		Cold:      true,
		QueueWait: c.bootStart.Sub(c.req.enqueued),
		BootTime:  n.eng.Now().Sub(c.bootStart),
	})
}

// releaseCached is the container cache's OnEvict hook: every instance
// leaving the cache releases its charged client memory — the eviction
// half of the cache's cost model.
func (c *Container) releaseCached(_ multiplex.Key, _ any, bytes int64) {
	c.FreeClientMem(bytes)
}

// parkIdle returns a drained container to the warm pool and appends it to
// the keep-alive FIFO with the deadline a timer of its own would take.
func (n *Node) parkIdle(c *Container) {
	if c.parked {
		n.unpark(c)
	}
	c.state = Idle
	n.warm[c.fn] = append(n.warm[c.fn], c)
	c.expiry = n.eng.Reserve(n.cfg.KeepAlive)
	c.parked = true
	c.parkPrev = n.parkedTail
	if n.parkedTail != nil {
		n.parkedTail.parkNext = c
	} else {
		n.parkedHead = c
		n.keepAlive.ResetTo(c.expiry)
	}
	n.parkedTail = c
}

// unpark takes a container out of the keep-alive FIFO. When it was the
// oldest the node's timer moves to the next-oldest's reserved deadline.
func (n *Node) unpark(c *Container) {
	if poison && c.state != Idle {
		panic(fmt.Sprintf("node: container %s in the keep-alive FIFO is %v", c.id, c.state))
	}
	prev, next := c.parkPrev, c.parkNext
	if next != nil {
		next.parkPrev = prev
	} else {
		n.parkedTail = prev
	}
	c.parked, c.parkPrev, c.parkNext = false, nil, nil
	if prev != nil {
		prev.parkNext = next
		return
	}
	n.parkedHead = next
	if next != nil {
		n.keepAlive.ResetTo(next.expiry)
	} else {
		n.keepAlive.Stop()
	}
}

// keepAliveExpired evicts the container that sat idle longest, now that
// it sat idle for the whole keep-alive.
func (n *Node) keepAliveExpired() {
	c := n.parkedHead
	if c.state != Idle {
		// Checked out behind the warm pool's back (the race build panics
		// here): busy, so not evicted.
		n.unpark(c)
		return
	}
	n.teardown(c)
	n.evictions++
}

// teardown releases a container's resources. Memory is tracked, never
// bounded, so freeing it starts no queued creation.
func (n *Node) teardown(c *Container) {
	if c.state == Evicted {
		return
	}
	if c.parked {
		// Out of the keep-alive FIFO and the warm pool alike: no later
		// Acquire may hand out a torn-down container.
		n.unpark(c)
		list := n.warm[c.fn]
		i := slices.Index(list, c)
		n.warm[c.fn] = slices.Delete(list, i, i+1)
	}
	c.state = Evicted
	// All client memory — transient duplicates and multiplexer-cached
	// instances alike — is charged through AllocClientMem and therefore
	// lives in clientBytes, freed wholesale here. The cache is closed for
	// its stats and lifecycle hooks; its per-instance FreeClientMem calls
	// clamp to the already-zeroed balance.
	freed := n.cfg.ContainerMem + c.clientBytes
	c.clientBytes = 0
	c.clientLive = 0
	if c.cache != nil {
		c.cache.Close()
	}
	n.freeMem(freed)
	n.advanceLiveIntegral()
	n.live--
	// Groups exist only after boot completed. A container with accepted
	// invocations still inside (crash mid-batch) keeps its groups until
	// that work drains — ReturnThread closes them on the last return;
	// closing now would detach the pool from CPU work those invocations
	// submit later (IO-phase invocations submit their compute on return),
	// silently losing them.
	if c.active == 0 {
		c.closeGroups()
	}
}

// WarmCount reports the idle containers available for fn.
func (n *Node) WarmCount(fn string) int { return len(n.warm[fn]) }
