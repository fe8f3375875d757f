package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/scenario"
)

// sim_fleet runs the simulator half of the repository (sim, core,
// cluster, node, cpusched) on the benchmark's own copy of
// scenarios/fleet-1m.yaml: 500 workers in 10 zones, three phases, chaos
// and outages, about a million invocations, once, in full. Its size is
// fixed: -seconds does not set it. Its latencies are the model's, in
// virtual time: the reproduction's paper-facing numbers, which repeat
// exactly for a seed. Its throughput is simulated invocations per wall
// second.
const (
	simFleetFile = "bench/workloads/sim_fleet.yaml"
	// simSmokeFile is the benchmark's copy of scenarios/smoke.yaml, which a
	// smoke run simulates instead: the same code paths on ten workers and
	// a few thousand invocations.
	simSmokeFile = "bench/workloads/sim_smoke.yaml"
)

func simFile(o options) string {
	if o.measuring() {
		return simFleetFile
	}
	return simSmokeFile
}

// loadSim reads and parses the scenario and seeds it.
func loadSim(o options) (*scenario.Scenario, error) {
	src, err := os.ReadFile(simFile(o))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	sc.Seed = o.seed
	return sc, nil
}

// simOut is one timed scenario run.
type simOut struct {
	body    scenario.Body
	wall    time.Duration
	mallocs uint64
}

func runScenario(sc *scenario.Scenario) (*simOut, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := scenario.Run(sc)
	if err != nil {
		return nil, err
	}
	out := &simOut{body: rep.Body, wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	return out, nil
}

// check verifies the model's outputs: every declared invariant held and
// no invocation was lost.
func (s *simOut) check() error {
	for _, v := range s.body.Violations() {
		return fmt.Errorf("sim_fleet: invariant %s violated: %s", v.Name, v.Detail)
	}
	if t := s.body.Totals; t.Completed != t.Submitted {
		return fmt.Errorf("sim_fleet: submitted %d, completed %d", t.Submitted, t.Completed)
	}
	return nil
}

// failed counts invocations the model lost or failed for good.
func (s *simOut) failed() int64 {
	t := s.body.Totals
	return t.Failed + (t.Submitted - t.Completed)
}

func runSimFleet(o options) (*e2e, error) {
	sc, setup, reps, err := timeSetup(o,
		func() (*scenario.Scenario, error) { return loadSim(o) },
		func(*scenario.Scenario) error { return nil })
	if err != nil {
		return nil, err
	}
	out, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	res := &e2e{setupS: setup, setupReps: reps}
	t := out.body.Totals
	res.samples = int(t.Completed)
	res.attempted, res.failed = t.Submitted, out.failed()
	res.rps = float64(t.Completed) / out.wall.Seconds()
	res.p50ms = float64(t.Total.P50Micros) / 1e3
	res.p99ms = float64(t.Total.P99Micros) / 1e3
	if t.Completed > 0 {
		res.allocs = float64(out.mallocs) / float64(t.Completed)
	}
	res.problem(out.check())
	return res, nil
}

// sliceSimFleet runs the scenario once more for its counters. The
// simulator has no layer boundary the benchmark can see inside a run, so
// the trace holds the parse and the run, and there is no untraced
// baseline to compare with: without a tracer it does nothing.
func sliceSimFleet(o options, tr *obs.Tracer) (*sliceOut, error) {
	if tr == nil {
		return &sliceOut{}, nil
	}
	t0 := tr.Now()
	sc, err := loadSim(o)
	if err != nil {
		return nil, err
	}
	t1 := tr.Now()
	out, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	t2 := tr.Now()
	span(tr, 1, "scenario.parse", "", sc.Name, t0, t1)
	span(tr, 1, "scenario.run", "", sc.Name, t1, t2)
	b := out.body
	so := &sliceOut{vals: map[string]float64{}, attempted: b.Totals.Submitted, failed: out.failed()}
	so.rate = float64(b.Totals.Completed) / out.wall.Seconds()
	so.vals["client.achieved_rps"] = so.rate
	so.vals["client.latency_p99_ms"] = float64(b.Totals.Total.P99Micros) / 1e3
	held := 0
	for _, inv := range b.Invariants {
		if inv.OK {
			held++
		}
	}
	so.vals["scenario.invariants_held"] = float64(held)
	so.vals["core.groups"] = float64(b.Scheduler.Groups)
	if b.Scheduler.Groups > 0 {
		so.vals["core.avg_group_size"] = float64(b.Scheduler.Submitted) / float64(b.Scheduler.Groups)
	}
	if starts := b.Fleet.ColdStarts + b.Fleet.WarmStarts; starts > 0 {
		so.vals["cluster.warm_share"] = float64(b.Fleet.WarmStarts) / float64(starts)
	}
	if c := b.Totals.Completed; c > 0 {
		so.vals["scenario.allocs_per_invocation"] = float64(out.mallocs) / float64(c)
		so.vals["cluster.containers_per_1k"] = 1000 * float64(b.Fleet.ContainersCreated) / float64(c)
	}
	so.vals["cluster.peak_mem_mb"] = float64(b.Fleet.PeakMemBytes) / (1 << 20)
	so.problem(out.check())
	return so, nil
}
