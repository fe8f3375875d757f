package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"

	"faasbatch/internal/obs"
)

// TestLiveSmoke drives a small scenario through the real platform:
// goroutines, wall-clock windows, seeded chaos. The conservation
// invariant — platform Submitted == Invocations + Canceled — is the live
// analogue of the simulator's zero-loss guarantee.
func TestLiveSmoke(t *testing.T) {
	sc, err := Parse([]byte(`
scenario: live-smoke
mode: live
seed: 7
live-time-scale: 10
dispatch:
  interval: 10ms
  adaptive: true
sampling: 100ms
chaos:
  hang: 50ms
phases:
  - name: clean
    duration: 2s
    arrival: poisson
    rate: 200
    mix:
      - fn: ping
        instances: 3
  - name: faulty
    duration: 2s
    arrival: poisson
    rate: 200
    mix:
      - fn: ping
        instances: 3
    chaos:
      handler-error: 0.05
      container-crash: 0.02
invariants:
  - no-lost-invocations
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if body.Totals.Submitted == 0 {
		t.Fatal("live run submitted nothing")
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}
	if body.Mode != "live" {
		t.Errorf("mode = %q, want live", body.Mode)
	}
}

// TestLiveChaosSwapRace is the harness-level race regression: rapid
// phase boundaries swap the injector's rate table (SetRates) while the
// platform's dispatch goroutines consult it (Should) from in-flight
// windows. Run under -race this mirrors the PR 5 Close-vs-invokers
// shape, with the scenario engine as the driver.
func TestLiveChaosSwapRace(t *testing.T) {
	src := `
scenario: chaos-swap-race
mode: live
seed: 11
live-time-scale: 20
dispatch:
  interval: 5ms
sampling: 50ms
chaos:
  hang: 20ms
phases:
`
	// Many short phases, alternating fault tables, so rate swaps land
	// mid-dispatch over and over.
	for i := 0; i < 6; i++ {
		src += `
  - name: p` + string(rune('0'+i)) + `
    duration: 1s
    arrival: constant
    rate: 150
    mix:
      - fn: ping
        instances: 2
`
		if i%2 == 1 {
			src += `    chaos:
      handler-error: 0.1
      handler-panic: 0.02
      container-crash: 0.02
      storage-failure: 0.05
`
		}
	}
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}
	if len(body.Chaos) == 0 {
		t.Error("no faults injected across the faulty phases")
	}
}

// TestLiveRejections: live mode's guard rails.
func TestLiveRejections(t *testing.T) {
	fleet := &Scenario{}
	*fleet = Scenario{
		Name:          "fleet-live",
		Seed:          1,
		Mode:          ModeLive,
		Fleet:         Fleet{Workers: 4, Zones: 1},
		Sampling:      time.Second,
		MaxDrain:      time.Hour,
		LiveTimeScale: 1,
		Phases:        []Phase{{Name: "p", Duration: time.Second, Arrival: "poisson"}},
	}
	if _, err := NewRunner().RunBody(fleet); err == nil {
		t.Error("live mode accepted a multi-worker fleet")
	}
}

// TestLivePacesDeclaredArrivals is the regression for the live runner
// pacing every phase as flat Poisson whatever it declared: a constant
// phase must arrive evenly and a bursty one in bursts, as the report's
// per-phase Arrival says. Arrival instants are read from the run's trace
// (each invocation's scheduling span starts at its arrival); the
// coefficient of variation of the gaps is ~0 for an even stream, 1 for
// Poisson, and well above 1 for bursts of ten 1 ms apart every 100 ms.
func TestLivePacesDeclaredArrivals(t *testing.T) {
	sc, err := Parse([]byte(`
scenario: live-arrivals
mode: live
seed: 3
live-time-scale: 2
dispatch:
  interval: 5ms
  adaptive: true
sampling: 100ms
phases:
  - name: steady
    duration: 1s
    arrival: constant
    rate: 100
    mix:
      - fn: steady
  - name: bursts
    duration: 1s
    arrival: bursty
    rate: 100
    burst-size: 10
    burst-iat: 1ms
    mix:
      - fn: bursts
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var trace bytes.Buffer
	runner := NewRunner()
	runner.SetTraceSink(&trace)
	body, err := runner.RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Args map[string]string
		}
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	arrivals := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == obs.SpanScheduling && ev.Args["attempt"] == "1" {
			arrivals[ev.Args["fn"]] = append(arrivals[ev.Args["fn"]], ev.Ts)
		}
	}
	cv := func(fn string) float64 {
		ts := arrivals[fn]
		sort.Float64s(ts)
		if len(ts) < 30 {
			t.Fatalf("%s: %d traced arrivals, want a phase's worth (report: %+v)", fn, len(ts), body.Phases)
		}
		var sum, sq float64
		for i := 1; i < len(ts); i++ {
			gap := ts[i] - ts[i-1]
			sum += gap
			sq += gap * gap
		}
		n := float64(len(ts) - 1)
		mean := sum / n
		return math.Sqrt(sq/n-mean*mean) / mean
	}
	t.Logf("inter-arrival CV: steady %.2f, bursts %.2f", cv("steady"), cv("bursts"))
	if got := cv("steady"); got > 0.6 {
		t.Errorf("constant phase: inter-arrival CV %.2f, want an even stream (< 0.6; Poisson is 1)", got)
	}
	if got := cv("bursts"); got < 1.5 {
		t.Errorf("bursty phase: inter-arrival CV %.2f, want bursts (> 1.5; Poisson is 1)", got)
	}
}
