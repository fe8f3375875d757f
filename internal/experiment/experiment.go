// Package experiment drives complete evaluation runs: it wires a trace,
// a fleet of worker nodes (one by default, the paper's testbed), a
// scheduler policy and the resource sampler into one deterministic
// simulation and aggregates the metrics the paper reports —
// latency CDFs per component, provisioned containers, memory usage, CPU
// utilisation and per-client memory footprint.
//
// The figure/table reproductions of cmd/faasbench and bench_test.go are
// registered in figures.go.
package experiment

import (
	"fmt"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cluster"
	"faasbatch/internal/core"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/obs"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// PolicyKind selects the scheduler under test.
type PolicyKind int

// The four evaluated policies (§IV).
const (
	PolicyVanilla PolicyKind = iota + 1
	PolicySFS
	PolicyKraken
	PolicyFaaSBatch
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case PolicyVanilla:
		return "vanilla"
	case PolicySFS:
		return "sfs"
	case PolicyKraken:
		return "kraken"
	case PolicyFaaSBatch:
		return "faasbatch"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// AllPolicies lists the evaluated policies in the paper's order.
var AllPolicies = []PolicyKind{PolicyVanilla, PolicySFS, PolicyKraken, PolicyFaaSBatch}

// Config describes one evaluation run.
type Config struct {
	// Policy is the scheduler under test.
	Policy PolicyKind
	// Trace is the invocation workload.
	Trace trace.Trace
	// Nodes is the worker-VM count (default 1, the paper's testbed). The
	// trace replays on a fleet of this many nodes (internal/cluster), each
	// running its own scheduler of Policy.
	Nodes int
	// Balancing routes invocations across the nodes (default
	// cluster.FnAffinity).
	Balancing cluster.Balancing
	// Interval is FaaSBatch's dispatch interval and Kraken's
	// provisioning window (the paper sweeps 0.01 s – 0.5 s).
	Interval time.Duration
	// AdaptiveDispatch replaces FaaSBatch's fixed interval with the
	// load-aware controller (core.Config.AdaptiveDispatch) at core's
	// defaults: idle fast-path and EWMA-sized windows capped at Interval.
	AdaptiveDispatch bool
	// Seed drives the simulation's random source.
	Seed int64
	// Node configures every worker VM; zero value means
	// node.DefaultConfig.
	Node node.Config
	// DisableMultiplex turns the Resource Multiplexer off for FaaSBatch
	// (ablation).
	DisableMultiplex bool
	// Prewarm enables FaaSBatch's predictive pre-warming (extension).
	Prewarm bool
	// SLO supplies Kraken's per-function objectives. When nil, the run
	// derives them from a Vanilla pre-run (p98 per function, §IV).
	SLO map[string]time.Duration
	// Chaos enables seeded fault injection for the run (nil means no
	// faults — the default, leaving every existing figure bit-identical).
	// The injector seed defaults to Seed when Chaos.Seed is zero, so one
	// experiment seed fixes both arrivals and the fault schedule.
	Chaos *chaos.Config
	// Tracer, when non-nil, receives the run's invocation decomposition
	// spans on the virtual timeline (see EmitSpans). The simulation itself
	// is unaffected: spans are derived from completed records.
	Tracer *obs.Tracer
}

// Result aggregates one run's measurements.
type Result struct {
	// Policy names the scheduler that ran.
	Policy string
	// Interval echoes the configured dispatch interval.
	Interval time.Duration
	// Records holds one latency decomposition per invocation.
	Records []fnruntime.Record
	// Samples holds the once-per-second resource observations.
	Samples []Sample
	// TotalContainers is the number of containers provisioned.
	TotalContainers int
	// ContainersPerNode breaks TotalContainers down by node.
	ContainersPerNode []int
	// ColdStarts and WarmStarts split container acquisitions.
	ColdStarts, WarmStarts int
	// Evictions counts keep-alive evictions during the run.
	Evictions int
	// AvgMemBytes and PeakMemBytes summarise sampled node memory.
	AvgMemBytes  float64
	PeakMemBytes int64
	// CPUUtil is mean CPU utilisation (0..1) including container
	// background load.
	CPUUtil float64
	// ClientBytesAllocated is cumulative storage-client memory charged.
	ClientBytesAllocated int64
	// ClientMemPerInvocation is the average client memory footprint per
	// invocation (the Fig. 14d metric).
	ClientMemPerInvocation float64
	// Runner carries execution counters (clients built, cache hits),
	// summed over nodes like every count and sample above.
	Runner fnruntime.Stats
	// Batch carries FaaSBatch batching stats summed over nodes (nil for
	// baselines).
	Batch *core.Stats
	// Makespan is the completion time of the last invocation.
	Makespan time.Duration
	// Failures counts invocations that exhausted their retry budget
	// (zero without fault injection).
	Failures int
	// Retries counts extra scheduling attempts across all invocations.
	Retries int
	// Crashes, BootFailures and SlowBoots report injected-fault effects
	// observed at the nodes.
	Crashes, BootFailures, SlowBoots int
	// FaultSummary renders the injected-fault counts ("none" when chaos
	// was disabled or nothing fired).
	FaultSummary string
}

// CDF extracts a latency-component CDF from the records.
func (r *Result) CDF(c Component) CDF {
	vals := make([]time.Duration, len(r.Records))
	for i, rec := range r.Records {
		vals[i] = c.Of(rec.Breakdown)
	}
	return NewCDF(vals)
}

// Imbalance reports max/mean of per-node container counts (1.0 =
// perfectly balanced; 0 when the fleet provisioned nothing).
func (r *Result) Imbalance() float64 {
	return obs.Imbalance(r.ContainersPerNode)
}

// normalise fills config defaults.
func (c *Config) normalise() error {
	if c.Policy < PolicyVanilla || c.Policy > PolicyFaaSBatch {
		return fmt.Errorf("experiment: unknown policy %d", int(c.Policy))
	}
	if c.Trace.Len() == 0 {
		return fmt.Errorf("experiment: trace is empty")
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.Node.Cores == 0 {
		c.Node = node.DefaultConfig()
	}
	return nil
}

// samplePeriod is the resource sampling period, once per second as in the
// paper.
const samplePeriod = time.Second

// Run executes one evaluation run to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if cfg.Policy == PolicyKraken && cfg.SLO == nil {
		slo, err := SLOFromVanilla(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: derive kraken SLOs: %w", err)
		}
		cfg.SLO = slo
	}
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	return f.run(cfg)
}

// run replays cfg's trace on the fleet built for it and aggregates the
// result over its nodes.
func (f *fleet) run(cfg Config) (*Result, error) {
	nodes := f.cl.Nodes()
	sampler, err := StartSampler(f.eng, samplePeriod, func(t sim.Time) Sample {
		s := Sample{T: t}
		for _, nd := range nodes {
			s.MemBytes += nd.MemUsed()
			s.Containers += nd.LiveContainers()
			s.BusyCoreSeconds += nd.BusyCoreSeconds()
		}
		return s
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	specs, err := SpecsFor(cfg.Trace)
	if err != nil {
		return nil, err
	}

	res := &Result{Policy: f.policy, Interval: cfg.Interval}
	done := func(inv *fnruntime.Invocation) { res.Records = append(res.Records, inv.Record) }
	if err := f.replay(cfg.Trace, func(i int) {
		f.cl.Submit(fnruntime.NewInvocation(int64(i), specs[i], f.eng.Now()), done)
	}, func() int { return len(res.Records) }); err != nil {
		return nil, err
	}
	res.Makespan = f.eng.Now().Duration()
	sampler.Stop()

	res.Samples = sampler.Samples()
	res.AvgMemBytes = sampler.AvgMemBytes()
	res.PeakMemBytes = sampler.PeakMemBytes()
	var cores float64
	for _, nd := range nodes {
		res.TotalContainers += nd.TotalCreated()
		res.ContainersPerNode = append(res.ContainersPerNode, nd.TotalCreated())
		res.ColdStarts += nd.ColdStarts()
		res.WarmStarts += nd.WarmStarts()
		res.Evictions += nd.Evictions()
		res.ClientBytesAllocated += nd.ClientBytesAllocated()
		res.Crashes += nd.Crashes()
		res.BootFailures += nd.BootFailures()
		res.SlowBoots += nd.SlowBoots()
		cores += nd.Config().Cores
	}
	res.CPUUtil = cpuUtil(res.Samples, cores)
	res.ClientMemPerInvocation = float64(res.ClientBytesAllocated) / float64(cfg.Trace.Len())
	for _, r := range f.runners {
		res.Runner.Add(r.Stats())
	}
	if len(f.batch) > 0 {
		res.Batch = &core.Stats{}
		for _, b := range f.batch {
			res.Batch.Add(b.Stats())
		}
	}
	for _, r := range res.Records {
		res.Retries += r.Retries
		if r.Failed {
			res.Failures++
		}
	}
	res.FaultSummary = f.inj.Summary()
	if err := emitRunTrace(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// fleet is one run's simulated testbed: cfg.Nodes worker VMs behind the
// cluster dispatcher, each running its own scheduler of cfg.Policy.
type fleet struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	inj *chaos.Injector // nil without fault injection
	// policy names the schedulers; runners and the FaaSBatch schedulers
	// (none under a baseline) are collected in node order for the result.
	policy  string
	runners []*fnruntime.Runner
	batch   []*core.FaaSBatch
}

// newFleet builds cfg's fleet on a fresh engine. The optional fault
// injector reaches every node (boot faults) and runner (execution faults);
// its seed defaults to the run's, so one seed fixes arrivals and faults.
func newFleet(cfg Config) (*fleet, error) {
	f := &fleet{eng: sim.New(cfg.Seed)}
	if cfg.Chaos != nil {
		ccfg := *cfg.Chaos
		if ccfg.Seed == 0 {
			ccfg.Seed = cfg.Seed
		}
		inj, err := chaos.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		f.inj = inj
	}
	ncfgs := make([]node.Config, cfg.Nodes)
	for i := range ncfgs {
		ncfgs[i] = cfg.Node
		if cfg.Policy == PolicySFS {
			// A node's SFS retunes its own MLFQ's quanta from that node's
			// arrivals, so no two nodes share one.
			ncfgs[i].Discipline = cpusched.NewMLFQ()
		}
	}
	cl, err := cluster.New(f.eng, cluster.Config{
		Nodes:       cfg.Nodes,
		NodeConfigs: ncfgs,
		Scheduler:   f.newScheduler(cfg),
		Balancing:   cfg.Balancing,
		Chaos:       f.inj,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	f.cl = cl
	return f, nil
}

// newScheduler returns the constructor of cfg.Policy's per-node scheduler.
func (f *fleet) newScheduler(cfg Config) func(policy.Env) (policy.Scheduler, error) {
	var krakenMaxBatch int
	if cfg.Policy == PolicyKraken {
		krakenMaxBatch = krakenMaxBatchFor(cfg.Trace)
	}
	return func(env policy.Env) (policy.Scheduler, error) {
		var (
			sched policy.Scheduler
			err   error
		)
		switch cfg.Policy {
		case PolicyVanilla:
			sched, err = policy.NewVanilla(env)
		case PolicySFS:
			sched, err = policy.NewSFS(env, policy.DefaultSFSConfig())
		case PolicyKraken:
			kcfg := policy.DefaultKrakenConfig()
			kcfg.Window = cfg.Interval
			kcfg.SLO = cfg.SLO
			kcfg.MaxBatch = krakenMaxBatch
			sched, err = policy.NewKraken(env, kcfg)
		case PolicyFaaSBatch:
			fcfg := core.DefaultConfig()
			fcfg.Interval = cfg.Interval
			fcfg.Multiplex = !cfg.DisableMultiplex
			fcfg.Prewarm = cfg.Prewarm
			fcfg.AdaptiveDispatch = cfg.AdaptiveDispatch
			var batch *core.FaaSBatch
			if batch, err = core.New(env, fcfg); err == nil {
				f.batch = append(f.batch, batch)
				sched = batch
			}
		}
		if err != nil {
			return nil, fmt.Errorf("build %v scheduler: %w", cfg.Policy, err)
		}
		f.policy = sched.Name()
		f.runners = append(f.runners, env.Runner)
		return sched, nil
	}
}

// replay is the one trace replay: at each arrival's offset it calls
// start with the arrival's index, then steps the engine until completed
// counts every arrival done and closes the fleet. Run starts one
// invocation per arrival, RunChain one chain.
func (f *fleet) replay(tr trace.Trace, start func(i int), completed func() int) error {
	for i, inv := range tr.Invocations {
		f.eng.Schedule(inv.Offset, func() { start(i) })
	}
	for completed() < tr.Len() {
		if !f.eng.Step() {
			return fmt.Errorf("experiment: engine drained with %d/%d arrivals complete", completed(), tr.Len())
		}
	}
	if err := f.cl.Close(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// krakenMaxBatchFor picks the paper-implied Kraken batch cap for a trace:
// I/O-dominated traces use ~5 (the paper's 5.26 invocations per Kraken
// container, 400 invocations / 76 containers, §V-B2), CPU-intensive
// traces ~30 (Kraken provisioned close to FaaSBatch there, Fig. 13b).
// The difference reflects Kraken's profiled execution times on the
// authors' congested testbed, which our cleaner substrate cannot derive
// from first principles (see DESIGN.md §7).
func krakenMaxBatchFor(tr trace.Trace) int {
	io := 0
	for _, inv := range tr.Invocations {
		if inv.FibN == 0 {
			io++
		}
	}
	if io*2 >= tr.Len() {
		return 5
	}
	return 30
}

// cpuUtil computes mean utilisation from the sampled busy integral.
func cpuUtil(samples []Sample, cores float64) float64 {
	if len(samples) < 2 || cores <= 0 {
		return 0
	}
	first, last := samples[0], samples[len(samples)-1]
	span := last.T.Sub(first.T).Seconds()
	if span <= 0 {
		return 0
	}
	return (last.BusyCoreSeconds - first.BusyCoreSeconds) / (span * cores)
}

// SpecsFor maps trace invocations to function specs: fib(N) entries become
// CPU-intensive specs, the rest I/O specs.
func SpecsFor(tr trace.Trace) ([]workload.Spec, error) {
	specs := make([]workload.Spec, tr.Len())
	fibCache := map[int]workload.Spec{}
	ioCache := map[string]workload.Spec{}
	for i, inv := range tr.Invocations {
		if inv.FibN > 0 {
			s, ok := fibCache[inv.FibN]
			if !ok {
				var err error
				s, err = workload.FibSpec(inv.FibN)
				if err != nil {
					return nil, fmt.Errorf("experiment: invocation %d: %w", i, err)
				}
				fibCache[inv.FibN] = s
			}
			// Group by the trace's function identity (one deployed "fib"
			// function with varying N), not by input value.
			s.Name = inv.Fn
			specs[i] = s
			continue
		}
		s, ok := ioCache[inv.Fn]
		if !ok {
			s = workload.IOSpec(inv.Fn)
			ioCache[inv.Fn] = s
		}
		specs[i] = s
	}
	return specs, nil
}

// SLOFromVanilla runs the trace under Vanilla and returns each function's
// p98 end-to-end latency, the paper's fair-comparison SLO for Kraken.
func SLOFromVanilla(cfg Config) (map[string]time.Duration, error) {
	pre := cfg
	pre.Policy = PolicyVanilla
	pre.SLO = nil
	// The SLO pre-run is an implementation detail; keep it out of the
	// caller's trace.
	pre.Tracer = nil
	res, err := Run(pre)
	if err != nil {
		return nil, err
	}
	return p98PerFn(res.Records), nil
}

// p98PerFn returns each function's p98 end-to-end latency over recs.
func p98PerFn(recs []fnruntime.Record) map[string]time.Duration {
	perFn := map[string][]time.Duration{}
	for _, r := range recs {
		perFn[r.Fn] = append(perFn[r.Fn], r.Total())
	}
	out := make(map[string]time.Duration, len(perFn))
	for fn, lats := range perFn {
		out[fn] = NewCDF(lats).P(0.98)
	}
	return out
}
