// Package node models the worker VM of the evaluation (§IV): a multi-core
// machine running a container engine. It provides:
//
//   - a container lifecycle (starting → idle → busy → evicted) with a
//     keep-alive warm pool, so schedulers get warm starts exactly when a
//     keep-alive container for the function exists;
//   - a "docker daemon" creation pipeline with bounded concurrency whose
//     per-container creation work burns node CPU — under invocation bursts
//     this queue is what inflates Vanilla's and SFS's scheduling latency;
//   - a memory ledger tracking container base memory and client-instance
//     memory, sampled once per virtual second by the experiment harness.
//
// The paper runs real Docker; every behavioural knob the evaluation
// depends on (cold-start latency, creation CPU cost, daemon parallelism,
// per-container memory, keep-alive) is an explicit Config field here,
// calibrated in internal/experiment.
package node

import (
	"fmt"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/sim"
)

// Config parameterises a worker node.
type Config struct {
	// Cores is the number of CPU cores (the paper's worker VM has 32).
	Cores float64
	// Discipline is the CPU scheduling model (FairShare unless the SFS
	// policy installs MLFQ).
	Discipline cpusched.Discipline
	// ColdStartLatency is the non-CPU part of booting a container
	// (image setup, runtime init).
	ColdStartLatency time.Duration
	// CreateCPUWork is the CPU work the container engine burns to create
	// one container. It executes on the node's cores and therefore
	// contends with function execution.
	CreateCPUWork time.Duration
	// ContainerInitCPUWork is the CPU work the container itself burns
	// while booting (interpreter start, web-server init, SDK imports).
	// It runs in the container's own CPU group, so a wave of cold starts
	// saturates the node and stretches everyone's latency — the paper's
	// "busy CPUs running in worker nodes amplify instruction execution
	// times" effect (§V-A1).
	ContainerInitCPUWork time.Duration
	// CreateConcurrency bounds how many container creations the engine
	// processes in parallel.
	CreateConcurrency int
	// KeepAlive is how long an idle container is retained before
	// eviction.
	KeepAlive time.Duration
	// ContainerMem is the base memory footprint of one container.
	ContainerMem int64
	// BaseMemBytes is the constant platform memory (OS, container
	// engine, gateway) included in reported memory usage, mirroring the
	// paper's whole-system memory measurements.
	BaseMemBytes int64
	// ContainerIdleCPU is the background CPU (cores) one live container
	// consumes for its runtime/server processes, independent of function
	// work. It models the paper's observation that running containers
	// themselves contribute to CPU utilisation (§V-B3).
	ContainerIdleCPU float64
	// Chaos optionally injects seeded faults into the node: BootFailure
	// fails a boot after its init phase (image pull errors, OOM-killed
	// runtimes) — the container is torn down and its creation
	// re-enqueued, so the acquisition eventually succeeds and the extra
	// wait lands in the caller's cold-start latency — and SlowColdStart
	// inflates a boot's latency by the injector's cold-start factor. Nil
	// disables injection entirely.
	Chaos *chaos.Injector
}

// DefaultConfig returns the paper's worker-VM calibration.
func DefaultConfig() Config {
	return Config{
		Cores:                32,
		Discipline:           cpusched.FairShare{},
		ColdStartLatency:     400 * time.Millisecond,
		CreateCPUWork:        350 * time.Millisecond,
		ContainerInitCPUWork: time.Second,
		CreateConcurrency:    2,
		KeepAlive:            10 * time.Minute,
		ContainerMem:         24 << 20,
		BaseMemBytes:         256 << 20,
		ContainerIdleCPU:     0.02,
	}
}

// validate normalises and checks a config.
func (c *Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("node: cores must be positive, got %v", c.Cores)
	}
	if c.CreateConcurrency <= 0 {
		return fmt.Errorf("node: create concurrency must be positive, got %d", c.CreateConcurrency)
	}
	if c.ColdStartLatency < 0 || c.CreateCPUWork < 0 || c.ContainerInitCPUWork < 0 {
		return fmt.Errorf("node: cold-start latency, create work and init work must be non-negative")
	}
	if c.BaseMemBytes < 0 {
		return fmt.Errorf("node: base memory must be non-negative, got %d", c.BaseMemBytes)
	}
	if c.KeepAlive <= 0 {
		return fmt.Errorf("node: keep-alive must be positive, got %v", c.KeepAlive)
	}
	if c.ContainerIdleCPU < 0 {
		return fmt.Errorf("node: container idle CPU must be non-negative, got %v", c.ContainerIdleCPU)
	}
	if c.Discipline == nil {
		c.Discipline = cpusched.FairShare{}
	}
	return nil
}

// State is a container lifecycle state.
type State int

// Container states.
const (
	// Starting means the container is being created/booted.
	Starting State = iota + 1
	// Idle means the container is warm and available.
	Idle
	// Busy means at least one invocation is running inside.
	Busy
	// Evicted means the container was torn down.
	Evicted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Evicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Container is one provisioned container on the node.
type Container struct {
	node     *Node
	id       string
	fn       string
	state    State
	group    *cpusched.Group  // function execution CPU group (cpuset)
	gilGroup *cpusched.Group  // runtime-lock group: client creations serialise here
	cache    *multiplex.Cache // built by Cache on the first lookup
	active   int              // running invocations
	creating int              // in-flight client creations (contention degree k)
	// clientBytes tracks live non-multiplexed client memory charged to
	// the node ledger.
	clientBytes int64
	clientLive  int // live client instances (for marginal-memory pricing)

	// Creation (startCreation): the request being served, since when,
	// the boot phase under way, the CPU task it waits on, and the one
	// continuation the task and the boot latency both land on.
	req       createReq
	bootStart sim.Time
	boot      bootPhase
	task      cpusched.Task
	step      func() // advance, bound at creation

	// Parked in the node's keep-alive FIFO (Idle): the deadline reserved
	// at park time and the FIFO links.
	parked             bool
	expiry             sim.Deadline
	parkPrev, parkNext *Container
}

// ID reports the container's unique identifier.
func (c *Container) ID() string { return c.id }

// State reports the lifecycle state.
func (c *Container) State() State { return c.state }

// Group is the container's CPU scheduling group (its cpuset).
func (c *Container) Group() *cpusched.Group { return c.group }

// GILGroup is the one-core group where client creations serialise,
// modelling the language runtime lock of the paper's prototype.
func (c *Container) GILGroup() *cpusched.Group { return c.gilGroup }

// Cache is the container's Resource Multiplexer, or nil when the
// container was acquired without multiplexing (the baselines). It is
// built on the first call, so a container that never looks a client up
// (the fib family) never pays for one. A container torn down before its
// first lookup hands out a closed cache, as it would have had its cache
// been built at boot.
func (c *Container) Cache() *multiplex.Cache {
	if c.cache == nil && c.req.opts.Multiplex {
		c.cache = multiplex.NewWithConfig(multiplex.Config{OnEvict: c.releaseCached})
		if c.state == Evicted {
			c.cache.Close()
		}
	}
	return c.cache
}

// Active reports how many invocations are running inside the container.
func (c *Container) Active() int { return c.active }

// CheckoutThread marks one invocation as running inside the container.
func (c *Container) CheckoutThread() {
	c.active++
	c.state = Busy
}

// ReturnThread marks one invocation as finished. When the container
// drains it returns to the warm pool and its keep-alive clock starts; a
// crashed container instead releases its CPU groups once the in-flight
// work it accepted before the crash has finished.
func (c *Container) ReturnThread() {
	if c.active == 0 {
		return
	}
	c.active--
	if c.active > 0 {
		return
	}
	if c.state == Evicted {
		c.closeGroups()
		return
	}
	c.node.parkIdle(c)
}

// closeGroups detaches the container's CPU groups from the pool. Safe to
// call with nil groups (boot never completed) or repeatedly.
func (c *Container) closeGroups() {
	if c.group != nil {
		_ = c.group.Close()
	}
	if c.gilGroup != nil {
		_ = c.gilGroup.Close()
	}
}

// BeginClientCreation registers an in-flight client construction and
// reports the resulting concurrency degree k (>= 1).
func (c *Container) BeginClientCreation() int {
	c.creating++
	return c.creating
}

// EndClientCreation unregisters an in-flight client construction.
func (c *Container) EndClientCreation() {
	if c.creating > 0 {
		c.creating--
	}
}

// AllocClientMem charges client-instance memory to the node ledger and
// reports the live instance ordinal (1-based) for marginal pricing.
func (c *Container) AllocClientMem(bytes int64) int {
	c.clientLive++
	c.clientBytes += bytes
	c.node.allocMem(bytes)
	c.node.clientBytesAllocated += bytes
	return c.clientLive
}

// ClientLive reports the number of live client instances in the container.
func (c *Container) ClientLive() int { return c.clientLive }

// Terminate tears the container down immediately (scale-in), bypassing
// the warm pool. Kraken uses it to retire batch containers, reproducing
// the paper's observed fresh-container-per-batch behaviour. Terminating
// a container that still has running CPU tasks is not supported; callers
// terminate only after their batch drained.
func (c *Container) Terminate() {
	c.active = 0
	c.node.teardown(c)
}

// Crash kills the container abruptly (fault injection): it is torn down
// regardless of lifecycle state and counted as a crash. Invocations that
// had not started executing observe the Evicted state and must be
// retried by their scheduler; invocations already inside run their body
// to completion (our containers are simulated — there is no kernel to
// reap their threads), and the container's CPU groups detach only once
// that accepted work drains. Crashing an already-evicted container is a
// no-op.
func (c *Container) Crash() {
	if c.state == Evicted {
		return
	}
	c.node.teardown(c)
	c.node.crashes++
}

// FreeClientMem releases client-instance memory (a non-multiplexed client
// is garbage-collected when its invocation returns).
func (c *Container) FreeClientMem(bytes int64) {
	if bytes > c.clientBytes {
		bytes = c.clientBytes
	}
	c.clientBytes -= bytes
	if c.clientLive > 0 {
		c.clientLive--
	}
	c.node.freeMem(bytes)
}
