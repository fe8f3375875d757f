package policy

import (
	"fmt"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/sim"
)

// KrakenConfig parameterises the Kraken port (§IV).
type KrakenConfig struct {
	// SLO maps function names to their latency objective. Following the
	// paper's fair-comparison setup, the experiment harness fills this
	// with the p98 latency of each function observed under Vanilla.
	SLO map[string]time.Duration
	// DefaultSLO applies to functions missing from SLO.
	DefaultSLO time.Duration
	// Window is the provisioning interval. Each window pre-warms for as
	// many arrivals as the last one saw: the paper sets Kraken's
	// prediction accuracy to 100%, and this persistence forecast stands
	// in for it (see DESIGN.md §7).
	Window time.Duration
	// InitialExecEstimate seeds the per-function execution-time estimate
	// before the first completion is observed.
	InitialExecEstimate time.Duration
	// MaxBatch caps how many invocations one container's batch may hold,
	// regardless of slack. The original Kraken bounds batch sizes by
	// profiled container throughput; the default reproduces the paper's
	// observed ~5 invocations per Kraken container (§V-B2).
	MaxBatch int
}

// DefaultKrakenConfig returns the port defaults.
func DefaultKrakenConfig() KrakenConfig {
	return KrakenConfig{
		DefaultSLO:          time.Second,
		Window:              200 * time.Millisecond,
		InitialExecEstimate: 100 * time.Millisecond,
		MaxBatch:            5,
	}
}

// Kraken batches invocations into a bounded number of containers using
// SLO slack: a container accepts up to floor(SLO / execEstimate) queued
// invocations, which then execute sequentially (hence Kraken's
// characteristic queuing latency, Fig. 11c/12c). A provisioner pre-warms
// containers each window for the last window's arrivals. A drained batch
// container terminates: the paper's Kraken provisions a fresh container
// per batch (400 I/O invocations / 76 containers).
type Kraken struct {
	env    Env
	cfg    KrakenConfig
	fns    map[string]*krakenFn
	order  []string
	ticker *sim.Ticker
	seq    int
}

var _ Scheduler = (*Kraken)(nil)

// krakenFn is the per-function batching state.
type krakenFn struct {
	name       string
	slo        time.Duration
	execEst    *EWMA
	arrivals   int // arrivals in the current window
	containers []*krakenContainer
}

// krakenContainer wraps one container's sequential batch queue.
type krakenContainer struct {
	id      int
	fn      *krakenFn
	c       *node.Container
	ready   bool
	readyAt sim.Time
	running bool
	queue   []*krakenItem
}

// krakenItem is one queued invocation.
type krakenItem struct {
	inv      *fnruntime.Invocation
	complete func(*fnruntime.Invocation)
	issued   sim.Time
}

// NewKraken creates the Kraken scheduler.
func NewKraken(env Env, cfg KrakenConfig) (*Kraken, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if cfg.DefaultSLO <= 0 {
		return nil, fmt.Errorf("policy: kraken default SLO must be positive, got %v", cfg.DefaultSLO)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("policy: kraken window must be positive, got %v", cfg.Window)
	}
	if cfg.InitialExecEstimate <= 0 {
		return nil, fmt.Errorf("policy: kraken initial exec estimate must be positive, got %v", cfg.InitialExecEstimate)
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("policy: kraken max batch must be at least 1, got %d", cfg.MaxBatch)
	}
	k := &Kraken{env: env, cfg: cfg, fns: make(map[string]*krakenFn)}
	t, err := sim.NewTicker(env.Eng, cfg.Window, func(sim.Time) { k.provision() })
	if err != nil {
		return nil, fmt.Errorf("policy: kraken: %w", err)
	}
	k.ticker = t
	return k, nil
}

// Name implements Scheduler.
func (k *Kraken) Name() string { return "kraken" }

// Close implements Scheduler.
func (k *Kraken) Close() error {
	k.ticker.Stop()
	// Release reservations of ready idle containers so the node can park
	// and eventually evict them.
	for _, name := range k.order {
		fn := k.fns[name]
		kept := fn.containers[:0]
		for _, kc := range fn.containers {
			if kc.ready && !kc.running && len(kc.queue) == 0 {
				kc.c.ReturnThread()
			} else {
				kept = append(kept, kc)
			}
		}
		fn.containers = kept
	}
	return nil
}

// fnState returns (creating if needed) the batching state for a function.
func (k *Kraken) fnState(name string) *krakenFn {
	if fn, ok := k.fns[name]; ok {
		return fn
	}
	slo := k.cfg.DefaultSLO
	if s, ok := k.cfg.SLO[name]; ok && s > 0 {
		slo = s
	}
	exec, _ := NewEWMA(0.3) // validated range; cannot fail
	fn := &krakenFn{name: name, slo: slo, execEst: exec}
	k.fns[name] = fn
	k.order = append(k.order, name)
	return fn
}

// execEstimate reports the current execution-time estimate for fn.
func (k *Kraken) execEstimate(fn *krakenFn) time.Duration {
	if fn.execEst.Primed() {
		return time.Duration(fn.execEst.Value())
	}
	return k.cfg.InitialExecEstimate
}

// batchCapacity reports how many sequential executions fit within the SLO
// slack for fn — Kraken's batch-size parameter.
func (k *Kraken) batchCapacity(fn *krakenFn) int {
	est := k.execEstimate(fn)
	b := int(fn.slo / est)
	if b < 1 {
		b = 1
	}
	if b > k.cfg.MaxBatch {
		b = k.cfg.MaxBatch
	}
	return b
}

// Submit implements Scheduler: place the invocation on a container whose
// queue still meets the SLO, provisioning a new one otherwise.
func (k *Kraken) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	fn := k.fnState(inv.Spec.Name)
	fn.arrivals++
	item := &krakenItem{inv: inv, complete: complete, issued: k.env.Eng.Now()}
	b := k.batchCapacity(fn)
	for _, kc := range fn.containers {
		if kc.load() < b {
			kc.enqueue(k, item)
			return
		}
	}
	kc := k.newContainer(fn)
	kc.enqueue(k, item)
}

// newContainer provisions a fresh Kraken batch container for fn.
func (k *Kraken) newContainer(fn *krakenFn) *krakenContainer {
	k.seq++
	kc := &krakenContainer{id: k.seq, fn: fn}
	fn.containers = append(fn.containers, kc)
	k.env.Node.Acquire(fn.name, node.AcquireOptions{}, node.AcquireFunc(func(r node.AcquireResult) {
		kc.c = r.Container
		kc.ready = true
		kc.readyAt = k.env.Eng.Now()
		// Attribute the engine-queue wait and boot to the first queued
		// invocation — the one whose arrival triggered the provisioning.
		if len(kc.queue) > 0 {
			first := kc.queue[0]
			first.inv.Sched = first.issued.Sub(first.inv.Arrive) + r.QueueWait
			first.inv.ColdStart = r.BootTime
		}
		kc.drain(k)
	}))
	return kc
}

// load reports the container's queued plus running invocations.
func (kc *krakenContainer) load() int {
	n := len(kc.queue)
	if kc.running {
		n++
	}
	return n
}

// enqueue adds an item and starts draining when the container is ready.
func (kc *krakenContainer) enqueue(k *Kraken, item *krakenItem) {
	if item.inv.Sched == 0 && kc.ready {
		item.inv.Sched = k.env.Eng.Now().Sub(item.inv.Arrive)
	}
	kc.queue = append(kc.queue, item)
	if kc.ready && !kc.running {
		kc.drain(k)
	}
}

// drain runs the queue sequentially: one invocation at a time, the
// paper's "batched invocations queue inside the container" behaviour.
func (kc *krakenContainer) drain(k *Kraken) {
	if kc.running || !kc.ready {
		return
	}
	if len(kc.queue) == 0 {
		return
	}
	item := kc.queue[0]
	kc.queue = kc.queue[1:]
	kc.running = true
	// Queuing latency: from dispatch (or container readiness, for items
	// that waited out the boot) to execution start.
	queueFrom := item.issued
	if kc.readyAt > queueFrom {
		queueFrom = kc.readyAt
	}
	item.inv.Queue = k.env.Eng.Now().Sub(queueFrom)
	err := k.env.Runner.Execute(item.inv, kc.c, fnruntime.CompleteFunc(func(done *fnruntime.Invocation) {
		kc.fn.execEst.Observe(float64(done.Exec))
		kc.running = false
		item.complete(done)
		if len(kc.queue) > 0 {
			kc.drain(k)
			return
		}
		// Batch finished: terminate the container and retire this batch
		// handle.
		kc.release(k)
	}))
	if err != nil {
		// Execution can only fail on an evicted container; retire the
		// handle and resubmit the queue through the scheduler.
		kc.running = false
		items := append([]*krakenItem{item}, kc.queue...)
		kc.queue = nil
		kc.retire(k)
		for _, it := range items {
			k.Submit(it.inv, it.complete)
		}
	}
}

// release retires the handle and terminates its container (scale-in).
func (kc *krakenContainer) release(k *Kraken) {
	kc.c.Terminate()
	kc.retire(k)
}

// retire removes the handle from its function's container list.
func (kc *krakenContainer) retire(k *Kraken) {
	list := kc.fn.containers
	for i, other := range list {
		if other == kc {
			kc.fn.containers = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// provision runs once per window: pre-warm containers for as many
// arrivals as the window just ended saw.
func (k *Kraken) provision() {
	for _, name := range k.order {
		fn := k.fns[name]
		// Terminate pre-warmed containers that went unused this window.
		for _, kc := range append([]*krakenContainer(nil), fn.containers...) {
			if kc.ready && !kc.running && len(kc.queue) == 0 {
				kc.release(k)
			}
		}
		predicted := fn.arrivals
		fn.arrivals = 0
		if predicted <= 0 {
			continue
		}
		b := k.batchCapacity(fn)
		want := (predicted + b - 1) / b
		// Only the shortfall is pre-provisioned. Kraken parks containers
		// in the node's keep-alive pool only at Close, so while windows
		// tick its handles are every container it has.
		for i := len(fn.containers); i < want; i++ {
			k.newContainer(fn)
		}
	}
}
