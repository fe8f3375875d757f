package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/autoscale"
)

// TestRegistryLifecycleTransitions exercises the administrative state
// machine the autoscaler drives: activate/drain/retire, the Counts
// breakdown, and the drain-complete hook.
func TestRegistryLifecycleTransitions(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	rt := newTestRouter(t, workers, nil)
	reg := rt.reg

	if ready, draining, down, standby := reg.Counts(); ready != 2 || draining+down+standby != 0 {
		t.Fatalf("initial counts = %d/%d/%d/%d, want 2/0/0/0", ready, draining, down, standby)
	}

	var drainedMu sync.Mutex
	var drained []string
	reg.OnDrained(func(id string) {
		drainedMu.Lock()
		drained = append(drained, id)
		drainedMu.Unlock()
	})

	// Drain with zero in-flight completes immediately.
	if !reg.Drain("w1") {
		t.Fatal("Drain(w1) reported no transition")
	}
	drainedMu.Lock()
	if len(drained) != 1 || drained[0] != "w1" {
		t.Fatalf("drain hook fired %v, want [w1]", drained)
	}
	drainedMu.Unlock()
	if ready, draining, _, _ := reg.Counts(); ready != 1 || draining != 1 {
		t.Fatalf("after drain: ready=%d draining=%d, want 1/1", ready, draining)
	}
	if reg.UpCount() != 1 {
		t.Fatalf("draining worker still owns ring segments: UpCount=%d", reg.UpCount())
	}

	// Drain with in-flight work defers the hook to the last completion.
	reg.BeginForward("w2")
	if !reg.Drain("w2") {
		t.Fatal("Drain(w2) reported no transition")
	}
	drainedMu.Lock()
	if len(drained) != 1 {
		t.Fatalf("drain hook fired early for a busy worker: %v", drained)
	}
	drainedMu.Unlock()
	reg.EndForward("w2", true, true)
	drainedMu.Lock()
	if len(drained) != 2 || drained[1] != "w2" {
		t.Fatalf("drain hook after last completion = %v, want [w1 w2]", drained)
	}
	drainedMu.Unlock()

	// Retire moves draining -> standby; Activate brings it back.
	if !reg.Retire("w1") {
		t.Fatal("Retire(w1) reported no transition")
	}
	if _, _, _, standby := reg.Counts(); standby != 1 {
		t.Fatalf("standby count after retire != 1")
	}
	if !reg.Activate("w1") {
		t.Fatal("Activate(w1) reported no transition")
	}
	reg.Activate("w2")
	if ready, _, _, _ := reg.Counts(); ready != 2 {
		t.Fatalf("ready count after reactivation = %d, want 2", ready)
	}
	if reg.UpCount() != 2 {
		t.Fatalf("reactivated fleet owns %d ring members, want 2", reg.UpCount())
	}
}

// TestRingChurnZeroLost is the membership-churn regression: workers are
// drained, retired and re-activated continuously while invocations
// stream through the router, and every invocation must still complete —
// ring remove/re-add never strands an in-flight forward.
func TestRingChurnZeroLost(t *testing.T) {
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		fw.set(func(f *fakeWorker) { f.invokeDelay = 2 * time.Millisecond })
	}
	rt := newTestRouter(t, workers, nil)

	stop := make(chan struct{})
	var churns int
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		// w1 stays up throughout so the ring is never empty; w2 and w3
		// cycle through drain -> standby -> active.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := "w2"
			if i%2 == 1 {
				id = "w3"
			}
			rt.reg.Drain(id)
			time.Sleep(3 * time.Millisecond)
			rt.reg.Retire(id)
			time.Sleep(3 * time.Millisecond)
			rt.reg.Activate(id)
			churns++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const calls = 200
	var failures atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn := string(rune('a' + i%7))
			if _, err := rt.Invoke(context.Background(), routedReq(fn)); err != nil {
				failures.Add(1)
				t.Errorf("invoke %d (%s): %v", i, fn, err)
			}
		}(i)
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d/%d invocations lost during membership churn (%d churn cycles)",
			failures.Load(), calls, churns)
	}
	if churns == 0 {
		t.Fatal("churn loop never completed a cycle; the test exercised nothing")
	}
	st := rt.Stats()
	if st.Completed != calls {
		t.Fatalf("completed %d/%d", st.Completed, calls)
	}
}

// TestLiveScaleCycleZeroLost is the live-elasticity acceptance test: a
// 3-worker fleet with scale-to-zero enabled rides a full burst →
// scale-up → drain → scale-to-zero → wake cycle on the real wall-clock
// control loop, and no invocation is lost at any point — including the
// one that lands on a fully retired fleet and must wait out the wake.
func TestLiveScaleCycleZeroLost(t *testing.T) {
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		fw.set(func(f *fakeWorker) { f.invokeDelay = 2 * time.Millisecond })
	}
	rt := newTestRouter(t, workers, func(cfg *Config) {
		cfg.Autoscale = &autoscale.Config{
			MinWorkers:       0,
			MaxWorkers:       3,
			TargetPerWorker:  2,
			EvalInterval:     20 * time.Millisecond,
			Warmup:           0,
			DrainBudget:      40 * time.Millisecond,
			ScaleDownAfter:   2,
			ScaleToZeroAfter: 100 * time.Millisecond,
		}
	})
	rt.Start()

	var failures atomic.Int64
	invoke := func(fn string) {
		if _, err := rt.Invoke(context.Background(), routedReq(fn)); err != nil {
			failures.Add(1)
			t.Errorf("invoke %s: %v", fn, err)
		}
	}

	// Phase 1 — burst: ~500/s for 200ms must scale the fleet up.
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			invoke(string(rune('a' + i%5)))
		}(i)
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	st := rt.scaler.status()
	if st.ScaleUps < 1 {
		t.Fatalf("burst produced no scale-ups: %+v", st)
	}

	// Phase 2 — silence: the fleet must drain all the way to zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = rt.scaler.status()
		if st.Ready == 0 && st.Warming == 0 && st.Draining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached zero: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.ScaleDowns < 1 || st.Drained < 1 {
		t.Fatalf("scale-down cycle incomplete: %+v", st)
	}

	// Phase 3 — wake: one arrival on the empty fleet must be served,
	// not bounced, and must count as a wake.
	invoke("wake-fn")
	st = rt.scaler.status()
	if st.Wakes < 1 {
		t.Fatalf("wake arrival did not wake the fleet: %+v", st)
	}

	if failures.Load() != 0 {
		t.Fatalf("%d invocations lost across the scale cycle", failures.Load())
	}
	rst := rt.Stats()
	if rst.NoWorkers != 0 {
		t.Fatalf("router bounced %d invocations with an empty ring", rst.NoWorkers)
	}
}

// TestHashWakeFromZeroHoldsArrival: under the hash policy, the first
// arrival on a fleet scaled to zero finds an empty ring, and
// awaitCapacity holds it through the woken worker's warm-up instead of
// answering 503. It is served with 200 no sooner than Warmup after it
// arrived, and the router counts no empty-ring bounce.
func TestHashWakeFromZeroHoldsArrival(t *testing.T) {
	const warmup = 30 * time.Millisecond
	rt := newTestRouter(t, []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}, func(cfg *Config) {
		cfg.Autoscale = &autoscale.Config{
			MinWorkers:      0,
			MaxWorkers:      2,
			TargetPerWorker: 2,
			EvalInterval:    5 * time.Millisecond,
			Warmup:          warmup,
			DrainBudget:     10 * time.Millisecond,
			ScaleDownAfter:  1,
			// Longer than Warmup: idleness counts from the last arrival,
			// so a shorter span would retire the woken worker while it
			// warms and leave the held arrival nothing to reach.
			ScaleToZeroAfter: 100 * time.Millisecond,
		}
	})
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()
	rt.Start()

	// The fleet starts with one worker; idleness drains it to zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.scaler.status()
		if st.Ready == 0 && st.Warming == 0 && st.Draining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached zero: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	resp, err := http.Post(srv.URL+"/invoke", "application/json", strings.NewReader(`{"fn":"cold","payload":{"n":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	held := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wake arrival: %d %s, want 200", resp.StatusCode, body)
	}
	if held < warmup {
		t.Fatalf("wake arrival served after %v, before the %v warm-up: it was never held", held, warmup)
	}
	if st := rt.scaler.status(); st.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1: %+v", st.Wakes, st)
	}
	if st := rt.Stats(); st.NoWorkers != 0 {
		t.Fatalf("router bounced %d invocations with an empty ring", st.NoWorkers)
	}
}
