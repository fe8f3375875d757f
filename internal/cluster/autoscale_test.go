package cluster

import (
	"testing"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// conformanceConfig is the controller configuration of the lifecycle
// replay: 4-node fleet, scale-to-zero enabled, fast ticks.
func conformanceConfig() autoscale.Config {
	return autoscale.Config{
		MinWorkers:       0,
		MaxWorkers:       4,
		TargetPerWorker:  10,
		EvalInterval:     100 * time.Millisecond,
		Warmup:           150 * time.Millisecond,
		DrainBudget:      200 * time.Millisecond,
		ScaleDownAfter:   2,
		ScaleToZeroAfter: 400 * time.Millisecond,
	}
}

// conformanceArrival is one scheduled invocation of the shared traffic
// schedule. Offsets deliberately avoid tick multiples so arrival/tick
// ordering is unambiguous.
type conformanceArrival struct {
	off time.Duration
	fn  string
}

// conformanceSchedule is a burst → quiet → single-wake traffic shape:
// enough demand to scale up past one worker, silence long enough to
// drain to zero, then one arrival that must wake the fleet.
func conformanceSchedule() []conformanceArrival {
	var out []conformanceArrival
	fns := []string{"alpha", "beta", "gamma"}
	// Burst: 90 arrivals over ~450ms (~200/s across three functions).
	// Offsets are ≡ 2 (mod 5) so none lands on a 100ms tick multiple.
	for i := 0; i < 90; i++ {
		out = append(out, conformanceArrival{
			off: time.Duration(7+i*5) * time.Millisecond,
			fn:  fns[i%len(fns)],
		})
	}
	// One straggler keeps a trickle alive through the cooldown.
	out = append(out, conformanceArrival{off: 730 * time.Millisecond, fn: "alpha"})
	// Silence until past ScaleToZeroAfter, then the wake arrival.
	out = append(out, conformanceArrival{off: 1910 * time.Millisecond, fn: "beta"})
	return out
}

// runSimConformance replays the schedule through the simulated cluster
// driver on a virtual clock.
func runSimConformance(t *testing.T, acfg autoscale.Config, sched []conformanceArrival, horizon time.Duration) ([]autoscale.Decision, autoscale.Status) {
	t.Helper()
	eng := sim.New(1)
	cfg := testClusterConfig(4, ConsistentHash)
	cfg.Autoscale = &acfg
	cl, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	spec := workload.IOSpec("conformance")
	done := 0
	for i, a := range sched {
		i, a := i, a
		eng.Schedule(a.off, func() {
			s := spec
			s.Name = a.fn
			inv := fnruntime.NewInvocation(int64(i), s, eng.Now())
			cl.Submit(inv, func(*fnruntime.Invocation) { done++ })
		})
	}
	eng.RunUntil(sim.Time(horizon))
	if done != len(sched) {
		t.Fatalf("sim driver completed %d/%d invocations", done, len(sched))
	}
	ds, st := cl.AutoscaleDecisions(), cl.AutoscaleStatus()
	if err := cl.Close(); err != nil {
		t.Fatalf("cluster.Close: %v", err)
	}
	return ds, st
}

// TestAutoscaleZeroLostOnMembershipChurn replays a burst → quiet →
// single-wake schedule with autoscaling enabled and asserts every
// invocation completes even as the controller adds, drains and retires
// nodes mid-flight — the sim half of the zero-lost-invocations guarantee
// (runSimConformance checks completion) — and that the schedule really
// walks the whole lifecycle: it scales up past the initial worker,
// drains back down and wakes a scaled-to-zero fleet. That the live
// router's driver turns the same arrivals and ticks into the same
// decisions holds because both feed one autoscale.Controller, whose
// determinism TestBurstCorpusDeterminism pins.
func TestAutoscaleZeroLostOnMembershipChurn(t *testing.T) {
	ds, st := runSimConformance(t, conformanceConfig(), conformanceSchedule(), 2500*time.Millisecond)
	var ups, drains int
	for _, d := range ds {
		switch d.Action {
		case autoscale.ActionProvision:
			ups++
		case autoscale.ActionDrain:
			drains++
		}
	}
	if ups < 2 {
		t.Fatalf("schedule never scaled up past the initial worker: %d provisions\n%v", ups, ds)
	}
	if drains < 2 {
		t.Fatalf("schedule never drained back down: %d drains\n%v", drains, ds)
	}
	if st.Wakes < 1 {
		t.Fatalf("schedule never woke a scaled-to-zero fleet\n%v", ds)
	}
}
