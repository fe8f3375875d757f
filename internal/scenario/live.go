// live.go replays a scenario against the in-process live platform: real
// goroutines, wall-clock windows, seeded chaos swapped at phase
// boundaries. Live mode exists for smoke coverage — does the platform
// uphold the same invariants the simulator promises, under real
// concurrency? — so it is deliberately small: one worker, a bounded
// arrival budget, no outages (the live registry owns mark-down in
// production; a single in-process worker has nothing to fail over to).
// Live reports carry real timings and are not byte-reproducible.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/slo"
)

// maxLiveInvocations bounds a live scenario's expected arrivals: live
// runs burn wall clock and real CPU, so fleet-scale numbers belong in
// sim mode.
const maxLiveInvocations = 100_000

func runLive(sc *Scenario, traceSink io.Writer) (*Body, error) {
	if sc.Fleet.Workers != 1 {
		return nil, fmt.Errorf("scenario: live mode supports exactly 1 worker, got %d (use mode: sim for fleets)", sc.Fleet.Workers)
	}
	for i, p := range sc.Phases {
		if len(p.Outages) > 0 {
			return nil, fmt.Errorf("scenario: live mode does not support outages (phase %d)", i)
		}
	}
	if n := sc.ExpectedInvocations(); n > maxLiveInvocations {
		return nil, fmt.Errorf("scenario: live mode caps expected invocations at %d, scenario declares ~%d", maxLiveInvocations, n)
	}
	scale := sc.LiveTimeScale

	inj := chaos.MustNew(chaos.Config{
		Seed:            subSeed(sc.Seed, "chaos"),
		ColdStartFactor: sc.Chaos.ColdStartFactor,
		HangDuration:    sc.Chaos.Hang,
	})
	pcfg := platform.DefaultConfig()
	pcfg.ColdStart = 5 * time.Millisecond
	pcfg.DispatchInterval = 20 * time.Millisecond
	if sc.Dispatch.Interval > 0 {
		pcfg.DispatchInterval = sc.Dispatch.Interval
	}
	pcfg.AdaptiveDispatch = sc.Dispatch.Adaptive
	if sc.Dispatch.MinInterval > 0 {
		pcfg.MinInterval = sc.Dispatch.MinInterval
	}
	pcfg.MaxGroupSize = sc.Dispatch.MaxGroupSize
	pcfg.MaxRetries = 3
	switch {
	case sc.Dispatch.MaxRetries < 0:
		pcfg.MaxRetries = 0
	case sc.Dispatch.MaxRetries > 0:
		pcfg.MaxRetries = sc.Dispatch.MaxRetries
	}
	// Hangs must resolve inside the drain budget, so every attempt gets a
	// deadline comfortably above the injected hang.
	pcfg.InvokeTimeout = 2*injHang(sc) + time.Second
	pcfg.Chaos = inj
	if traceSink != nil {
		tr, err := obs.NewWallTracer(1<<16, 1)
		if err != nil {
			return nil, err
		}
		pcfg.Tracer = tr
	}
	p, err := platform.New(pcfg)
	if err != nil {
		return nil, err
	}

	echo := func(ctx context.Context, inv *platform.Invocation) (any, error) {
		return len(inv.Payload), nil
	}
	registered := map[string]bool{}
	for _, ph := range sc.Phases {
		for _, e := range ph.Mix {
			for i := 0; i < e.Instances; i++ {
				name := e.Fn
				if e.Instances > 1 {
					name = fmt.Sprintf("%s-%d", e.Fn, i)
				}
				if !registered[name] {
					registered[name] = true
					if err := p.Register(name, echo); err != nil {
						_ = p.Close()
						return nil, err
					}
				}
			}
		}
	}

	// Live-mode SLO tracking observes wall time, so the window ladder
	// scales to the wall span of the run (phase durations / time scale).
	var slos *slo.Tracker
	if objs := sc.SLOObjectives(); len(objs) > 0 {
		slos, err = slo.NewTracker(slo.ScaledWindows(scaled(sc.TotalDuration(), scale)), objs)
		if err != nil {
			_ = p.Close()
			return nil, err
		}
	}

	start := time.Now()
	var (
		mu     sync.Mutex
		events []Event
		body   Body
	)
	event := func(kind, detail string) {
		mu.Lock()
		events = append(events, Event{TimeMillis: time.Since(start).Milliseconds(), Kind: kind, Detail: detail})
		mu.Unlock()
	}

	// Sampler goroutine: platform stats every Sampling/scale.
	var samples []Sample
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(scaled(sc.Sampling, scale))
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				st := p.Stats()
				mu.Lock()
				samples = append(samples, Sample{
					TimeMillis:     time.Since(start).Milliseconds(),
					Submitted:      st.Submitted,
					Completed:      st.Invocations + st.Canceled,
					Inflight:       st.Submitted - st.Invocations - st.Canceled,
					LiveContainers: int64(st.LiveContainers),
				})
				mu.Unlock()
			}
		}
	}()

	var wg sync.WaitGroup
	var aggs []*phaseAgg
	for pi, ph := range sc.Phases {
		agg := &phaseAgg{}
		aggs = append(aggs, agg)
		event("phase", fmt.Sprintf("phase %q starts (arrival %s, rate %g/s)", ph.Name, ph.Arrival, ph.Rate))
		// The phase-boundary rate swap races the platform's in-flight
		// dispatch goroutines by design — the -race stress satellite
		// exercises exactly this path.
		if err := inj.SetRates(ph.Chaos); err != nil {
			_ = p.Close()
			return nil, err
		}
		if len(ph.Chaos) > 0 {
			event("chaos", fmt.Sprintf("fault rates set for phase %q", ph.Name))
		}
		runLivePhase(p, sc, pi, ph, scale, &wg, agg, &mu, slos, start)
	}
	// All arrivals issued; wait for every in-flight invocation so the
	// phase aggregates are complete before they are summarised.
	wg.Wait()
	body.Phases, body.Totals = summarizePhases(sc.Phases, aggs)
	close(stopSampler)
	<-samplerDone
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("scenario: platform close: %w", err)
	}
	if traceSink != nil {
		if err := p.Tracer().WriteChromeTrace(traceSink); err != nil {
			return nil, fmt.Errorf("scenario: trace export: %w", err)
		}
	}
	st := p.Stats()

	body.Version = ReportVersion
	body.Scenario = sc.Name
	body.Mode = sc.Mode.String()
	body.Seed = sc.Seed
	body.Workers = 1
	body.Zones = sc.Fleet.Zones
	body.Balancing = sc.Dispatch.Balancing.String()
	body.Events = events
	body.Samples = samples
	body.Scheduler = SchedStats{
		Submitted:          st.Submitted,
		Groups:             st.Groups,
		Retries:            st.Retries,
		Failed:             st.Failures,
		FastPathDispatches: st.FastPathDispatches,
		EarlyCloses:        st.EarlyCloses,
		WindowDispatches:   st.WindowDispatches,
	}
	body.Fleet = FleetStats{
		ContainersCreated: st.ContainersCreated,
		ColdStarts:        st.ContainersCreated,
		WarmStarts:        st.WarmStarts,
		Crashes:           st.Crashes,
		BootFailures:      st.BootFailures,
	}
	body.Chaos = chaosCounts(inj)
	body.Invariants = evalInvariants(sc.Invariants, invariantInputs{
		submitted:        body.Totals.Submitted,
		completed:        body.Totals.Completed,
		failed:           body.Totals.Failed,
		conservationLHS:  st.Submitted,
		conservationRHS:  st.Invocations + st.Canceled,
		conservationExpr: "platform Submitted == Invocations + Canceled",
		slo:              sloVerdicts(sc, slos, time.Since(start)),
	})
	body.MakespanMillis = time.Since(start).Milliseconds()
	return &body, nil
}

// runLivePhase paces one phase on the wall clock from the same arrival
// generator the simulator runs (constant, Poisson or bursty heads, the
// ramp, the weighted mix), compressed by the time scale, and blocks until
// the phase window has elapsed (in-flight calls may drain later).
func runLivePhase(p *platform.Platform, sc *Scenario, pi int, ph Phase, scale float64, wg *sync.WaitGroup, agg *phaseAgg, mu *sync.Mutex, slos *slo.Tracker, start time.Time) {
	begin := time.Now()
	payload := json.RawMessage(`{}`)
	fire := func(fn string) {
		mu.Lock()
		agg.submitted++
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Invoke(context.Background(), fn, payload)
			slos.Observe(fn, res.Total(), err != nil, time.Since(start))
			mu.Lock()
			agg.observe(res.Breakdown, err != nil, max(res.Attempts-1, 0))
			mu.Unlock()
		}()
	}
	if ph.Rate > 0 {
		a := newArrivals(sc, pi, ph)
		// Phase time runs from zero; body holds the burst members still
		// due, ascending, and the loop takes whichever of the next head
		// and the earliest member comes first.
		var body []time.Duration
		for head := time.Duration(0); ; {
			at, member := head, false
			if len(body) > 0 && body[0] <= head {
				at, member, body = body[0], true, body[1:]
			}
			if at >= ph.Duration {
				break
			}
			time.Sleep(time.Until(begin.Add(scaled(at, scale))))
			if !member {
				for _, off := range a.head(at, ph.Duration-at) {
					body = append(body, at+off)
				}
				slices.Sort(body)
				head = at + a.gap()
				continue
			}
			if spec, ok := a.pick(); ok {
				fire(spec.Name)
			}
		}
	}
	time.Sleep(time.Until(begin.Add(scaled(ph.Duration, scale))))
}

// scaled compresses a wall-clock duration by the scenario's time scale.
func scaled(d time.Duration, scale float64) time.Duration {
	if scale <= 1 {
		return d
	}
	out := time.Duration(float64(d) / scale)
	if out < time.Millisecond {
		out = time.Millisecond
	}
	return out
}

// injHang reports the effective injected hang duration.
func injHang(sc *Scenario) time.Duration {
	if sc.Chaos.Hang > 0 {
		return sc.Chaos.Hang
	}
	return 2 * time.Second
}
