package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"faasbatch/internal/dispatch"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/scenario"
	"faasbatch/internal/sim"
)

// Stand-alone layer probes: layers no ladder rung isolates, each driven
// through its exported functions for a fixed amount of work.

// probeDispatch replays the burst_batch schedule through a
// dispatch.Controller on a virtual clock, closing each function's window
// at its deadline as the platform's loop would, and returns ns per
// arrival.
func probeDispatch(o options, tr *obs.Tracer) (float64, error) {
	sched, err := burstSchedule(o.seed, 10*time.Second)
	if err != nil {
		return 0, err
	}
	rounds := int(200 * o.scale())
	if rounds < 1 {
		rounds = 1
	}
	t0 := tr.Now()
	for r := 0; r < rounds; r++ {
		c, err := dispatch.New(dispatch.Config{
			MinInterval:  platform.DefaultMinInterval,
			MaxInterval:  200 * time.Millisecond,
			MaxGroupSize: saturateGroup,
		})
		if err != nil {
			return 0, err
		}
		deadline := map[string]time.Duration{}
		for i := range sched {
			a := &sched[i]
			if d, open := deadline[a.fn]; open && d <= a.due {
				c.WindowClosed(a.fn)
				delete(deadline, a.fn)
			}
			_, open := deadline[a.fn]
			if d := c.Arrive(a.fn, a.due, !open); d.Action == dispatch.ActionWait {
				deadline[a.fn] = d.Deadline
			} else {
				delete(deadline, a.fn)
			}
		}
	}
	t1 := tr.Now()
	span(tr, 1, "dispatch.arrive", "", "", t0, t1)
	return float64(t1-t0) / float64(rounds*len(sched)), nil
}

// probeMultiplex times Resources.GetContext from inside a handler the
// benchmark owns, on a warm single-call platform: n lookups of one key
// (hits), then n lookups of ever-new keys against a multiplexer bounded
// at scatterCap entries (misses that evict). The build is free, so the
// miss time is the multiplexer's own.
func probeMultiplex(o options, tr *obs.Tracer) (hitNs, missNs float64, err error) {
	cfg := hotConfig("")
	cfg.Multiplex = true
	cfg.Multiplexer.MaxEntries = scatterCap
	var took time.Duration
	var outcome platform.Outcome
	p, err := newPlatform(cfg, []string{"lookup"}, func(ctx context.Context, inv *platform.Invocation) (any, error) {
		t0 := time.Now()
		_, out, err := inv.Resources.GetContext(ctx, "storage.client", string(inv.Payload), func() (any, int64, error) {
			return &sharedClient{}, 1 << 20, nil
		})
		took, outcome = time.Since(t0), out
		return nil, err
	})
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
		defer cancel()
		if cerr := p.CloseContext(ctx); err == nil {
			err = cerr
		}
	}()
	n := o.probeN()
	lookups := func(name string, want platform.Outcome, key func(i int) string) (float64, error) {
		ns := make([]int64, 0, n)
		for i := 0; i < n+1; i++ {
			start := tr.Now()
			if _, err := p.Invoke(context.Background(), "lookup", []byte(key(i))); err != nil {
				return 0, err
			}
			if i == 0 {
				continue // the first lookup of the hit key is its miss
			}
			if outcome != want {
				return 0, fmt.Errorf("%s: lookup %d was a %v, want %v", name, i, outcome, want)
			}
			span(tr, uint64(i), name, "", "lookup", start, start+took)
			ns = append(ns, int64(took))
		}
		return medianInt64(ns), nil
	}
	hitNs, err = lookups("multiplex.get_hit", platform.OutcomeHit, func(int) string { return `"shared"` })
	if err != nil {
		return 0, 0, err
	}
	missNs, err = lookups("multiplex.get_miss", platform.OutcomeMiss, func(i int) string { return fmt.Sprintf(`"k%d"`, i) })
	return hitNs, missNs, err
}

// probeSim schedules and fires no-op events on a sim.Engine in batches of
// 1024 and returns ns and heap allocations per event.
func probeSim(o options, tr *obs.Tracer) (ns, allocs float64) {
	const batch = 1024
	batches := int(1000 * o.scale())
	if batches < 1 {
		batches = 1
	}
	eng := sim.New(o.seed)
	eng.Grow(batch)
	rng := eng.Rand()
	noop := func() {}
	var t0, t1 time.Duration
	mallocs := mallocsOver(func() {
		t0 = tr.Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				eng.Schedule(time.Duration(rng.Int63n(int64(time.Second))), noop)
			}
			for eng.Step() {
			}
		}
		t1 = tr.Now()
	})
	span(tr, 1, "sim.schedule_step", "", "", t0, t1)
	events := float64(batches * batch)
	return float64(t1-t0) / events, float64(mallocs) / events
}

// probeParse returns the median time to parse the sim_fleet scenario.
func probeParse(tr *obs.Tracer) (float64, error) {
	src, err := os.ReadFile(simFleetFile)
	if err != nil {
		return 0, err
	}
	var msec []float64
	for i := 0; i < 21; i++ {
		t0 := tr.Now()
		if _, err := scenario.Parse(src); err != nil {
			return 0, err
		}
		t1 := tr.Now()
		span(tr, uint64(i+1), "scenario.parse", "", "", t0, t1)
		msec = append(msec, float64(t1-t0)/1e6)
	}
	return median(msec), nil
}

// runProbes runs every stand-alone probe and writes its metrics.
func runProbes(o options, tr *obs.Tracer, vals map[string]float64) error {
	var err error
	if vals["dispatch.arrive_ns"], err = probeDispatch(o, tr); err != nil {
		return fmt.Errorf("dispatch probe: %w", err)
	}
	if vals["multiplex.get_hit_ns_p50"], vals["multiplex.get_miss_ns_p50"], err = probeMultiplex(o, tr); err != nil {
		return fmt.Errorf("multiplex probe: %w", err)
	}
	vals["sim.schedule_step_ns"], vals["sim.allocs_per_event"] = probeSim(o, tr)
	if vals["scenario.parse_ms"], err = probeParse(tr); err != nil {
		return fmt.Errorf("scenario parse probe: %w", err)
	}
	return nil
}
