package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/chaos"
)

// settleGoroutines polls until the goroutine count drops to at most want,
// tolerating runtime background goroutines that need a moment to exit.
func settleGoroutines(t *testing.T, want int, within time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(within)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestChaosStressNoInvocationLost replays a bursty workload through the
// live platform with every fault kind firing at 10%: boot failures, slow
// cold starts, mid-batch container crashes, handler errors, panics and
// hangs, and storage-client construction failures. The lifecycle
// guarantees under test: every Invoke returns exactly once (success or a
// final error after the bounded retries), the counters reconcile, Close
// drains within its deadline, and no goroutines leak.
func TestChaosStressNoInvocationLost(t *testing.T) {
	before := runtime.NumGoroutine()

	inj, err := chaos.New(chaos.Config{
		Seed:         42,
		Rates:        chaos.Uniform(0.10),
		HangDuration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	p, err := New(Config{
		Mode:             ModeBatch,
		DispatchInterval: 20 * time.Millisecond,
		ColdStart:        5 * time.Millisecond,
		KeepAlive:        250 * time.Millisecond,
		Multiplex:        true,
		InvokeTimeout:    60 * time.Millisecond,
		MaxRetries:       3,
		RetryBackoff:     5 * time.Millisecond,
		Chaos:            inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	handler := func(ctx context.Context, inv *Invocation) (any, error) {
		// The storage path exercises the multiplexer's Fail/coalesce
		// machinery under injected construction failures.
		_, _, err := inv.Resources.GetContext(ctx, "s3.client", "bkt", func() (any, int64, error) {
			return struct{}{}, 1 << 20, nil
		})
		if err != nil {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
		return "ok", nil
	}
	for _, fn := range []string{"alpha", "beta", "gamma"} {
		if err := p.Register(fn, handler); err != nil {
			t.Fatalf("Register %s: %v", fn, err)
		}
	}

	const bursts, perBurst = 3, 60
	var wg sync.WaitGroup
	var succeeded, failed, badAttempts atomic.Int64
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			fn := []string{"alpha", "beta", "gamma"}[i%3]
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Invoke(context.Background(), fn, json.RawMessage(`{}`))
				if err != nil {
					failed.Add(1)
				} else {
					succeeded.Add(1)
				}
				if res.Attempts < 1 || res.Attempts > 4 {
					badAttempts.Add(1)
				}
			}()
		}
		time.Sleep(50 * time.Millisecond) // gap between bursts
	}
	wg.Wait()

	total := int64(bursts * perBurst)
	if got := succeeded.Load() + failed.Load(); got != total {
		t.Fatalf("%d invocations returned, want %d", got, total)
	}
	if n := badAttempts.Load(); n != 0 {
		t.Errorf("%d results with Attempts outside [1, 1+MaxRetries]", n)
	}

	closeStart := time.Now()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(closeStart); d > 5*time.Second {
		t.Errorf("Close took %v", d)
	}

	st := p.Stats()
	if st.Submitted != total {
		t.Errorf("Submitted = %d, want %d", st.Submitted, total)
	}
	if st.Invocations != total {
		t.Errorf("Invocations = %d, want %d (exactly-once completion)", st.Invocations, total)
	}
	if st.Failures != failed.Load() {
		t.Errorf("Failures = %d, callers saw %d errors", st.Failures, failed.Load())
	}
	if inj.Total() == 0 {
		t.Error("no faults injected at 10% across every kind")
	}
	t.Logf("faults: %s; retries=%d failures=%d timeouts=%d panics=%d crashes=%d bootFailures=%d",
		inj.Summary(), st.Retries, st.Failures, st.Timeouts, st.Panics, st.Crashes, st.BootFailures)

	// Everything spawned by the platform must be gone: dispatcher, group
	// runners, retry sleepers, and the bounded chaos hangs.
	after := settleGoroutines(t, before, 3*time.Second)
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d after Close", before, after)
	}
}

// TestChaosHungHandlerTimesOut is the regression test for the hung-handler
// wedge: before InvokeTimeout existed, a handler that never returned held
// its whole window group (and Close) hostage. Now the hung invocation
// fails with a deadline error while the rest of its batch completes, and
// Close drains immediately.
func TestChaosHungHandlerTimesOut(t *testing.T) {
	release := make(chan struct{})
	// The timeout abandons the hung handler's goroutine; join it before
	// returning so it cannot outlive the test.
	hungDone := make(chan struct{})
	defer func() {
		close(release)
		<-hungDone
	}()

	p, err := New(Config{
		Mode:             ModeBatch,
		DispatchInterval: 20 * time.Millisecond,
		ColdStart:        time.Millisecond,
		KeepAlive:        time.Minute,
		InvokeTimeout:    80 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("mixed", func(ctx context.Context, inv *Invocation) (any, error) {
		if string(inv.Payload) == `"hang"` {
			defer close(hungDone)
			<-release // ignores ctx: a truly wedged handler
			return nil, errors.New("released")
		}
		return "done", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	var wg sync.WaitGroup
	var hungErr error
	var okCount atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hungErr = p.Invoke(context.Background(), "mixed", json.RawMessage(`"hang"`))
	}()
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "mixed", nil); err == nil {
				okCount.Add(1)
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch still wedged after 5s: hung handler blocked its group")
	}

	if hungErr == nil {
		t.Fatal("hung invocation returned no error")
	}
	if !errors.Is(hungErr, context.DeadlineExceeded) {
		t.Errorf("hung invocation error = %v, want deadline exceeded", hungErr)
	}
	if got := okCount.Load(); got != 5 {
		t.Errorf("%d/5 batch peers completed alongside the hung handler", got)
	}
	if st := p.Stats(); st.Timeouts < 1 {
		t.Errorf("Timeouts = %d, want >= 1", st.Timeouts)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close after hung handler: %v", err)
	}
}

// TestChaosRetriesRebatchIntoLaterWindow pins the retry semantics: a
// failing-then-succeeding handler consumes extra attempts, the result
// reports them, and the retry counters move.
func TestChaosRetriesRebatchIntoLaterWindow(t *testing.T) {
	var calls atomic.Int64
	p, err := New(Config{
		Mode:             ModeBatch,
		DispatchInterval: 15 * time.Millisecond,
		ColdStart:        time.Millisecond,
		KeepAlive:        time.Minute,
		MaxRetries:       3,
		RetryBackoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("flaky", func(context.Context, *Invocation) (any, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("transient fault %d", calls.Load())
		}
		return "finally", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "flaky", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Value != "finally" || res.Attempts != 3 {
		t.Errorf("res = %+v, want value finally after 3 attempts", res)
	}
	st := p.Stats()
	if st.Retries != 2 || st.Failures != 0 {
		t.Errorf("Retries = %d, Failures = %d, want 2 and 0", st.Retries, st.Failures)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestChaosRetryBudgetExhaustion pins the at-most-N semantics: a handler
// that always fails surfaces its error after exactly 1+MaxRetries
// attempts, with the failure counted.
func TestChaosRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int64
	p, err := New(Config{
		Mode:             ModeBatch,
		DispatchInterval: 10 * time.Millisecond,
		ColdStart:        time.Millisecond,
		KeepAlive:        time.Minute,
		MaxRetries:       2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("doomed", func(context.Context, *Invocation) (any, error) {
		calls.Add(1)
		return nil, errors.New("permanent fault")
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "doomed", nil)
	if err == nil {
		t.Fatal("doomed invocation succeeded")
	}
	if !strings.Contains(err.Error(), "permanent fault") {
		t.Errorf("error = %v", err)
	}
	if res.Attempts != 3 || calls.Load() != 3 {
		t.Errorf("Attempts = %d, handler calls = %d, want 3 and 3", res.Attempts, calls.Load())
	}
	st := p.Stats()
	if st.Failures != 1 || st.Retries != 2 {
		t.Errorf("Failures = %d, Retries = %d, want 1 and 2", st.Failures, st.Retries)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
