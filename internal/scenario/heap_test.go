package scenario

import (
	"runtime"
	"testing"
	"time"

	"faasbatch/internal/obs/obstest"
)

// TestHeapHoldsOnlyLiveEvents runs the smoke scenario with a probe event
// every virtual millisecond and checks the event heap against what the
// model has live at that instant. A stopped or re-armed timer leaves
// nothing behind, so the heap is bounded by state, not by history: one
// event per body in its I/O wait, group in its HTTP hop or container
// booting for a waiting group (at most the invocations in flight), a
// keep-alive and a CPU pool wake-up per worker, a window per function —
// and the scenario's own timeline, including burst members yet to
// arrive. Parked containers share their worker's one keep-alive timer;
// before they did, the heap held a timer per parked container, and before
// the timers were caller-owned it also held every keep-alive ever armed
// and every superseded wake-up: 730 k events on fleet-1m.
func TestHeapHoldsOnlyLiveEvents(t *testing.T) {
	sc := committedScenario(t, "smoke")
	s, err := NewRunner().newSimRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	fns, burst, outageEvents := 0, 0, 0
	seen := map[string]bool{}
	for _, p := range sc.Phases {
		for _, e := range p.Mix {
			if !seen[e.Fn] {
				seen[e.Fn] = true
				fns += e.Instances
			}
		}
		// A bursty head queues its whole body at once, up to twice the
		// mean size.
		burst = max(burst, 2*p.BurstSize)
		for range p.Outages {
			outageEvents += 2 * sc.Fleet.Workers / sc.Fleet.Zones
		}
	}
	// Phase starts and arrival heads, the end-of-workload marker, the
	// report's sampler and this probe.
	timeline := 2*len(sc.Phases) + 3 + outageEvents + burst
	peak, probes := 0, 0
	var probe func()
	probe = func() {
		bound := int(s.submitted-s.completed) + fns + 2*sc.Fleet.Workers + timeline
		pending := s.eng.Pending()
		if pending > bound {
			t.Errorf("at %v: %d events pending, model holds %d in flight + %d functions + 2 × %d workers + %d timeline = %d",
				s.eng.Now(), pending, s.submitted-s.completed, fns, sc.Fleet.Workers, timeline, bound)
		}
		peak = max(peak, pending)
		probes++
		s.eng.Schedule(time.Millisecond, probe)
	}
	s.eng.Schedule(0, probe)
	body, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if body.Totals.Completed == 0 || probes < 1000 {
		t.Fatalf("vacuous run: %d completed, %d probes", body.Totals.Completed, probes)
	}
	t.Logf("peak pending %d over %d probes (%d invocations, %d containers created)",
		peak, probes, body.Totals.Completed, body.Fleet.ContainersCreated)
}

// TestSimInvocationAllocBudget pins what one simulated invocation costs
// the allocator end to end — arrival, routing, window, group, container,
// body, completion, report — on the smoke scenario. The run recycles its
// invocations, so an invocation and its continuation are made once per
// invocation in flight at the peak, not per request; container creation,
// per-function state and the report's slices, spread over a run this
// short, make up nearly all of it (0.93 measured, 2.28 before a container
// cost five allocations instead of ~35; fleet-1m's million invocations
// spread the same costs to 0.13). The budget is the measurement plus 10 %.
func TestSimInvocationAllocBudget(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	sc := committedScenario(t, "smoke")
	runner := NewRunner()
	if _, err := runner.RunBody(sc); err != nil { // size the engine's heap and free list
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, err := runner.RunBody(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1.02
	per := float64(after.Mallocs-before.Mallocs) / float64(body.Totals.Completed)
	t.Logf("%.2f allocations per invocation over %d invocations", per, body.Totals.Completed)
	if per > budget {
		t.Errorf("%.2f allocations per simulated invocation, budget %.2f", per, budget)
	}
}
