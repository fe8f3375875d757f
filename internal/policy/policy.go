// Package policy defines the scheduler interface of the simulated
// serverless platform and implements the paper's three baselines:
//
//   - Vanilla — one container per in-flight invocation with warm reuse,
//     the model adopted by most serverless frameworks (§IV).
//   - SFS — Vanilla placement plus a user-space core scheduler that
//     favours short functions (installed as the node's MLFQ discipline)
//     and per-invocation scheduler overhead (§IV, [23]).
//   - Kraken — SLO/slack-driven batching: invocations queue inside a
//     bounded number of containers and execute sequentially, with an
//     EWMA-predicted provisioner pre-warming containers per window (§IV,
//     [16]).
//
// The FaaSBatch scheduler itself lives in internal/core; it implements the
// same Scheduler interface.
package policy

import (
	"fmt"
	"time"

	"faasbatch/internal/cpusched"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/sim"
)

// Scheduler routes invocations to containers.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Submit delivers one invocation. complete fires (in virtual time)
	// once the invocation finished and its latency record is final.
	Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation))
	// Close releases scheduler resources (timers). The scheduler must not
	// be used after Close.
	Close() error
}

// Env bundles the simulation fixtures a scheduler operates on.
type Env struct {
	// Eng is the discrete-event engine.
	Eng *sim.Engine
	// Node is the worker VM.
	Node *node.Node
	// Runner executes invocations inside containers.
	Runner *fnruntime.Runner
}

// validate checks the environment is complete.
func (e Env) validate() error {
	if e.Eng == nil || e.Node == nil || e.Runner == nil {
		return fmt.Errorf("policy: env requires engine, node and runner")
	}
	return nil
}

// Vanilla launches an isolated container for each invocation, reusing a
// keep-alive container when one is idle.
type Vanilla struct {
	env Env
}

var _ Scheduler = (*Vanilla)(nil)

// NewVanilla creates the Vanilla scheduler.
func NewVanilla(env Env) (*Vanilla, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return &Vanilla{env: env}, nil
}

// Name implements Scheduler.
func (v *Vanilla) Name() string { return "vanilla" }

// Close implements Scheduler.
func (v *Vanilla) Close() error { return nil }

// Submit implements Scheduler: acquire a container (warm or cold), run the
// single invocation, release the container back to the warm pool.
func (v *Vanilla) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	submitOnePerContainer(v.env, inv, complete)
}

// maxRetriesOnePerContainer bounds retries after container faults on the
// Vanilla/SFS path, mirroring core.DefaultConfig().MaxRetries so the
// fault-rate sweep compares equal retry budgets across policies.
const maxRetriesOnePerContainer = 3

// submitOnePerContainer is the shared Vanilla/SFS dispatch path.
func submitOnePerContainer(env Env, inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	issued := env.Eng.Now()
	env.Node.Acquire(inv.Spec.Name, node.AcquireOptions{}, node.AcquireFunc(func(r node.AcquireResult) {
		// Scheduling latency: decision plus engine-queue wait; the boot
		// itself is accounted separately as cold start (§IV).
		inv.Sched = issued.Sub(inv.Arrive) + r.QueueWait
		inv.ColdStart = r.BootTime
		err := env.Runner.Execute(inv, r.Container, fnruntime.CompleteFunc(func(done *fnruntime.Invocation) {
			r.Container.ReturnThread() // release the acquisition reservation
			complete(done)
		}))
		if err != nil {
			// The container was torn down (or crashed, under fault
			// injection) between acquisition and execution: retry on a
			// fresh container within the bounded budget rather than drop
			// the invocation.
			r.Container.ReturnThread()
			if inv.Attempts >= maxRetriesOnePerContainer {
				inv.Failed = true
				complete(inv)
				return
			}
			inv.Attempts++
			inv.Retries = inv.Attempts
			submitOnePerContainer(env, inv, complete)
		}
	}))
}

// SFSConfig parameterises the SFS port.
type SFSConfig struct {
	// SchedOverhead is the CPU cost of SFS's user-space scheduler per
	// invocation (PID transfer plus bookkeeping).
	SchedOverhead time.Duration
	// Adaptive enables SFS's adaptive time slices: the MLFQ base quantum
	// tracks the observed request inter-arrival time ([23]: "dynamically
	// perceiving IaT of requests and assigning an adaptive size of time
	// slices"). Requires the node to run the MLFQ discipline.
	Adaptive bool
	// MinQuantum and MaxQuantum clamp the adaptive base quantum.
	MinQuantum, MaxQuantum time.Duration
	// AdaptEvery sets how many arrivals pass between quantum updates.
	AdaptEvery int
}

// DefaultSFSConfig returns the port defaults.
func DefaultSFSConfig() SFSConfig {
	return SFSConfig{
		SchedOverhead: 2 * time.Millisecond,
		Adaptive:      true,
		MinQuantum:    10 * time.Millisecond,
		MaxQuantum:    200 * time.Millisecond,
		AdaptEvery:    16,
	}
}

// SFS wraps Vanilla placement with the SFS user-space scheduler: the
// node must be constructed with the MLFQ discipline (the experiment
// harness does this), and each invocation pays a scheduler overhead on a
// dedicated CPU group before dispatch.
type SFS struct {
	env        Env
	cfg        SFSConfig
	schedGroup *cpusched.Group
	mlfq       *cpusched.MLFQ // nil when the node runs another discipline
	iat        *EWMA
	lastArrive sim.Time
	arrivals   int
}

var _ Scheduler = (*SFS)(nil)

// NewSFS creates the SFS scheduler.
func NewSFS(env Env, cfg SFSConfig) (*SFS, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if cfg.SchedOverhead < 0 {
		return nil, fmt.Errorf("policy: sfs scheduler overhead must be non-negative, got %v", cfg.SchedOverhead)
	}
	if cfg.Adaptive {
		if cfg.MinQuantum <= 0 || cfg.MaxQuantum < cfg.MinQuantum {
			return nil, fmt.Errorf("policy: sfs adaptive quanta invalid: min %v max %v", cfg.MinQuantum, cfg.MaxQuantum)
		}
		if cfg.AdaptEvery <= 0 {
			return nil, fmt.Errorf("policy: sfs adapt-every must be positive, got %d", cfg.AdaptEvery)
		}
	}
	iat, err := NewEWMA(0.2)
	if err != nil {
		return nil, fmt.Errorf("policy: sfs: %w", err)
	}
	s := &SFS{
		env:        env,
		cfg:        cfg,
		schedGroup: env.Node.Pool().NewGroup("sfs-sched", 0),
		iat:        iat,
	}
	if m, ok := env.Node.Pool().Discipline().(*cpusched.MLFQ); ok {
		s.mlfq = m
	}
	return s, nil
}

// Name implements Scheduler.
func (s *SFS) Name() string { return "sfs" }

// Close implements Scheduler.
func (s *SFS) Close() error { return nil }

// Submit implements Scheduler.
func (s *SFS) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	s.observeArrival()
	if s.cfg.SchedOverhead <= 0 {
		submitOnePerContainer(s.env, inv, complete)
		return
	}
	s.schedGroup.Submit(s.cfg.SchedOverhead, func() {
		submitOnePerContainer(s.env, inv, complete)
	})
}

// observeArrival feeds the IaT estimator and periodically retunes the
// MLFQ base quantum to track it.
func (s *SFS) observeArrival() {
	now := s.env.Eng.Now()
	if s.arrivals > 0 {
		s.iat.Observe(float64(now.Sub(s.lastArrive)))
	}
	s.lastArrive = now
	s.arrivals++
	if !s.cfg.Adaptive || s.mlfq == nil || !s.iat.Primed() {
		return
	}
	if s.arrivals%s.cfg.AdaptEvery != 0 {
		return
	}
	q := time.Duration(s.iat.Value())
	if q < s.cfg.MinQuantum {
		q = s.cfg.MinQuantum
	}
	if q > s.cfg.MaxQuantum {
		q = s.cfg.MaxQuantum
	}
	if err := s.mlfq.SetBaseQuantum(q); err != nil {
		return // leave the previous quanta in place
	}
	s.env.Node.Pool().Reallocate()
}
