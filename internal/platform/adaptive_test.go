package platform

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/obs"
)

// adaptiveQuickConfig returns a fast adaptive-dispatch config.
func adaptiveQuickConfig() Config {
	cfg := quickConfig(ModeBatch)
	cfg.AdaptiveDispatch = true
	return cfg
}

// TestVanillaKeepAliveEviction is the regression test for the Vanilla
// eviction bug: eviction used to run only from the batch dispatch loop,
// which Vanilla mode never starts, so idle Vanilla containers outlived
// KeepAlive until Close. Eviction now runs on its own timer in every mode.
func TestVanillaKeepAliveEviction(t *testing.T) {
	cfg := quickConfig(ModeVanilla)
	cfg.KeepAlive = 30 * time.Millisecond
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if p.Stats().LiveContainers != 1 {
		t.Fatalf("LiveContainers = %d, want 1 right after the invocation", p.Stats().LiveContainers)
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().LiveContainers != 0 {
		select {
		case <-deadline:
			t.Fatalf("LiveContainers = %d, want 0 after keep-alive (Vanilla eviction never fired)", p.Stats().LiveContainers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestCanceledCallNotDispatched is the regression test for the
// cancelled-call bug: a call whose context ended while it waited for its
// window used to be dispatched anyway, executing the handler for a caller
// that had already returned. It is now dropped at window close and
// counted in Stats.Canceled.
func TestCanceledCallNotDispatched(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.DispatchInterval = 60 * time.Millisecond
	p := newPlatform(t, cfg)
	var ran atomic.Int64
	if err := p.Register("count", func(context.Context, *Invocation) (any, error) {
		ran.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Invoke(ctx, "count", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke err = %v, want context.Canceled", err)
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().Canceled != 1 {
		select {
		case <-deadline:
			t.Fatalf("Canceled = %d, want 1 after the window closed", p.Stats().Canceled)
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := p.Stats()
	if ran.Load() != 0 {
		t.Fatalf("handler ran %d times for a canceled caller, want 0", ran.Load())
	}
	if st.Invocations != 0 || st.Groups != 0 {
		t.Fatalf("Invocations = %d, Groups = %d, want 0/0: the canceled call must not dispatch", st.Invocations, st.Groups)
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d, want 0 (Submitted == Invocations + Canceled at quiescence)", got)
	}
}

// TestCanceledRetryNotRebatched: a retry whose caller's context ends
// during the backoff is dropped instead of re-entering a window.
func TestCanceledRetryNotRebatched(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.MaxRetries = 5
	cfg.RetryBackoff = 200 * time.Millisecond
	p := newPlatform(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int64
	if err := p.Register("fail", func(context.Context, *Invocation) (any, error) {
		attempts.Add(1)
		return nil, errors.New("always fails")
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	invokeErr := make(chan error, 1)
	go func() {
		_, err := p.Invoke(ctx, "fail", nil)
		invokeErr <- err
	}()
	// Wait until the first failed attempt has entered its retry backoff,
	// then cancel: the caller walks away mid-backoff.
	deadline := time.After(5 * time.Second)
	for p.Stats().Retries != 1 {
		select {
		case <-deadline:
			t.Fatalf("Retries = %d, want 1", p.Stats().Retries)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-invokeErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke err = %v, want context.Canceled", err)
	}
	for p.Stats().Canceled != 1 {
		select {
		case <-deadline:
			t.Fatalf("Canceled = %d, want 1 after the retry backoff", p.Stats().Canceled)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("handler attempts = %d, want 1 (the canceled retry must not run)", got)
	}
}

// TestAdaptiveFastPathLatency: with adaptive dispatch on, a lone
// invocation on an idle platform skips the window wait entirely. The
// acceptance bound is < 5ms; the test allows generous CI slack while
// still being far under the 200ms default window it replaces.
func TestAdaptiveFastPathLatency(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.DispatchInterval = 200 * time.Millisecond
	cfg.ColdStart = 0
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Sched > 50*time.Millisecond {
		t.Fatalf("lone arrival Sched = %v, want well under the 200ms window", res.Sched)
	}
	st := p.Stats()
	if st.FastPathDispatches != 1 {
		t.Fatalf("FastPathDispatches = %d, want 1", st.FastPathDispatches)
	}
	if st.DispatchWindowMicros == 0 {
		t.Fatal("DispatchWindowMicros = 0, want the chosen window gauge set")
	}
}

// TestAdaptiveConcurrentBurstBatches: concurrent arrivals still group
// under adaptive dispatch, and a MaxGroupSize cap closes windows early.
func TestAdaptiveConcurrentBurstBatches(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.ColdStart = 5 * time.Millisecond
	cfg.MaxGroupSize = 4
	p := newPlatform(t, cfg)
	block := make(chan struct{})
	if err := p.Register("echo", func(ctx context.Context, inv *Invocation) (any, error) {
		<-block
		return echo(ctx, inv)
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	// Let the arrivals pile up against the blocked handler, then release.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	st := p.Stats()
	if st.Invocations != n {
		t.Fatalf("Invocations = %d, want %d", st.Invocations, n)
	}
	if st.EarlyCloses == 0 {
		t.Fatal("EarlyCloses = 0, want > 0 with 16 concurrent arrivals and a cap of 4")
	}
}

// TestAdaptiveConfigValidation: bad adaptive knobs are rejected.
func TestAdaptiveConfigValidation(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.DispatchInterval = 200 * time.Millisecond
	cfg.MinInterval = 300 * time.Millisecond // above the 200ms cap
	if _, err := New(cfg); err == nil {
		t.Error("min interval above max accepted")
	}
	cfg = adaptiveQuickConfig()
	cfg.MinInterval = -time.Millisecond
	if _, err := New(cfg); err == nil {
		t.Error("negative min interval accepted")
	}
	cfg = quickConfig(ModeBatch)
	cfg.MaxGroupSize = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative max group size accepted")
	}
}

// TestAdaptiveCloseRace stresses Close racing the adaptive window loop
// mid-window (run with -race): invocations stream in while the platform
// tears down; every accepted invocation must still settle.
func TestAdaptiveCloseRace(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.ColdStart = time.Millisecond
	cfg.DispatchInterval = 5 * time.Millisecond
	cfg.MinInterval = time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Errors are expected once Close lands; the race detector
				// is the assertion here.
				if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	st := p.Stats()
	if got := st.Submitted - st.Invocations - st.Canceled; got != 0 {
		t.Fatalf("%d invocations unaccounted for after Close", got)
	}
}

// TestEveryGroupCountedOnce is the regression test for the Close-time
// flush: it used to dispatch an open window's group without counting it
// in WindowDispatches or recording its dispatch-window spans, and the
// fixed interval counted and recorded nothing at all. Under either
// policy every dispatched group is one fast path, one early close or one
// window dispatch, flushed windows included, and every call carries the
// span of the window it left in.
func TestEveryGroupCountedOnce(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			tracer, err := obs.NewWallTracer(1024, 1)
			if err != nil {
				t.Fatalf("NewWallTracer: %v", err)
			}
			cfg := quickConfig(ModeBatch)
			cfg.AdaptiveDispatch = adaptive
			// Windows far longer than the test: only the first lone
			// adaptive arrival (fast path) and the Close flush dispatch.
			cfg.DispatchInterval = time.Minute
			cfg.MinInterval = time.Minute
			cfg.Tracer = tracer
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			release := make(chan struct{})
			gated := func(context.Context, *Invocation) (any, error) {
				<-release
				return nil, nil
			}
			fns := []string{"a", "b"}
			for _, fn := range fns {
				if err := p.Register(fn, gated); err != nil {
					t.Fatalf("Register: %v", err)
				}
			}
			const perFn = 6
			var wg sync.WaitGroup
			for _, fn := range fns {
				for i := 0; i < perFn; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := p.Invoke(context.Background(), fn, nil); err != nil {
							t.Errorf("Invoke %s: %v", fn, err)
						}
					}()
				}
			}
			total := int64(perFn * len(fns))
			deadline := time.After(5 * time.Second)
			for p.Stats().Submitted != total {
				select {
				case <-deadline:
					t.Fatalf("Submitted = %d, want %d", p.Stats().Submitted, total)
				case <-time.After(time.Millisecond):
				}
			}
			close(release)
			if err := p.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			wg.Wait()
			st := p.Stats()
			if st.Invocations != total {
				t.Fatalf("Invocations = %d, want %d", st.Invocations, total)
			}
			if st.WindowDispatches == 0 {
				t.Fatalf("WindowDispatches = 0: the Close flush dispatched uncounted (%+v)", st)
			}
			if sum := st.FastPathDispatches + st.EarlyCloses + st.WindowDispatches; st.Groups != sum {
				t.Fatalf("Groups = %d, want fast path %d + early closes %d + window dispatches %d",
					st.Groups, st.FastPathDispatches, st.EarlyCloses, st.WindowDispatches)
			}
			spans := int64(0)
			for _, sp := range tracer.Snapshot() {
				if sp.Name == obs.SpanDispatchWindow {
					spans++
				}
			}
			if spans != total {
				t.Fatalf("dispatch-window spans = %d, want one per invocation (%d)", spans, total)
			}
		})
	}
}
