package platform

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// quickConfig returns a fast config for tests.
func quickConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 10 * time.Millisecond
	cfg.KeepAlive = time.Minute
	return cfg
}

func newPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return p
}

// echo is a trivial handler.
func echo(_ context.Context, inv *Invocation) (any, error) {
	return string(inv.Payload), nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.DispatchInterval = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero interval accepted in batch mode")
	}
	cfg = DefaultConfig()
	cfg.ColdStart = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative cold start accepted")
	}
	cfg = DefaultConfig()
	cfg.KeepAlive = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero keep-alive accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeBatch.String() != "faasbatch" || ModeVanilla.String() != "vanilla" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestRegisterValidation(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("", echo); err == nil {
		t.Error("empty name accepted")
	}
	if err := p.Register("f", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := p.Register("f", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Register("f", echo); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if _, err := p.Invoke(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestBatchInvokeRoundTrip(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "echo", json.RawMessage(`"hi"`))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Value != `"hi"` {
		t.Fatalf("Value = %v", res.Value)
	}
	if !res.Cold {
		t.Error("first invocation should be cold")
	}
	if res.ColdStart < 10*time.Millisecond {
		t.Errorf("ColdStart = %v, want >= simulated boot", res.ColdStart)
	}
	// Scheduling latency includes the window wait (<= interval + slack).
	if res.Sched > 100*time.Millisecond {
		t.Errorf("Sched = %v, want window-bounded", res.Sched)
	}
	if res.Queue < 0 {
		t.Errorf("Queue = %v, want >= 0", res.Queue)
	}
	if res.Total() != res.Sched+res.ColdStart+res.Queue+res.Exec {
		t.Error("Total is not the sum of the four components")
	}
}

func TestBatchGroupsConcurrentInvocationsIntoOneContainer(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	var mu sync.Mutex
	containers := map[string]int{}
	err := p.Register("track", func(_ context.Context, inv *Invocation) (any, error) {
		mu.Lock()
		containers[inv.ContainerID]++
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "track", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// All near-simultaneous invocations must land in very few containers
	// (1 when they fit a single window; allow 2 for window straddling).
	if len(containers) > 2 {
		t.Fatalf("%d invocations spread over %d containers: %v", n, len(containers), containers)
	}
	st := p.Stats()
	if st.Invocations != n {
		t.Fatalf("Invocations = %d, want %d", st.Invocations, n)
	}
	if st.ContainersCreated > 2 {
		t.Fatalf("ContainersCreated = %d, want <= 2", st.ContainersCreated)
	}
}

func TestVanillaSpawnsPerInvocation(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeVanilla))
	block := make(chan struct{})
	err := p.Register("slow", func(context.Context, *Invocation) (any, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "slow", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	// Wait for all containers to be created, then release.
	deadline := time.After(5 * time.Second)
	for {
		if p.Stats().ContainersCreated == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d containers created", p.Stats().ContainersCreated)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(block)
	wg.Wait()
}

func TestWarmReuse(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
		t.Fatalf("first Invoke: %v", err)
	}
	res, err := p.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatalf("second Invoke: %v", err)
	}
	if res.Cold {
		t.Error("second invocation should be warm")
	}
	st := p.Stats()
	if st.ContainersCreated != 1 || st.WarmStarts == 0 {
		t.Fatalf("stats = %+v, want warm reuse", st)
	}
}

func TestResourceMultiplexerSharesClients(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	var builds atomic.Int64
	err := p.Register("io", func(ctx context.Context, inv *Invocation) (any, error) {
		client, out, err := inv.Resources.GetContext(ctx, "s3.client", "bucket:key", func() (any, int64, error) {
			builds.Add(1)
			time.Sleep(5 * time.Millisecond) // construction cost
			return "S3_client", 15 << 20, nil
		})
		if err != nil {
			return nil, err
		}
		if client != "S3_client" {
			return nil, errors.New("wrong client")
		}
		return out.Cached(), nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 12
	var wg sync.WaitGroup
	cachedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Invoke(context.Background(), "io", nil)
			if err != nil {
				t.Errorf("Invoke: %v", err)
				return
			}
			if res.Value == true {
				cachedCount.Add(1)
			}
		}()
	}
	wg.Wait()
	// One build per container; near-simultaneous calls share 1-2
	// containers.
	if got := builds.Load(); got > 2 {
		t.Fatalf("client built %d times, want <= 2 (multiplexed)", got)
	}
	if cachedCount.Load() < n-2 {
		t.Fatalf("only %d/%d invocations hit the cache", cachedCount.Load(), n)
	}
	st := p.Stats()
	if st.Multiplexer.Hits+st.Multiplexer.Coalesced < uint64(n-2) {
		t.Fatalf("multiplexer stats = %+v", st.Multiplexer)
	}
}

func TestMultiplexDisabledBuildsEveryTime(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.Multiplex = false
	p := newPlatform(t, cfg)
	var builds atomic.Int64
	err := p.Register("io", func(ctx context.Context, inv *Invocation) (any, error) {
		_, out, err := inv.Resources.GetContext(ctx, "s3.client", "k", func() (any, int64, error) {
			builds.Add(1)
			return "c", 1, nil
		})
		if out.Cached() {
			return nil, errors.New("cache hit without multiplexer")
		}
		return nil, err
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Invoke(context.Background(), "io", nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
	}
	if builds.Load() != 3 {
		t.Fatalf("builds = %d, want 3", builds.Load())
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	wantErr := errors.New("boom")
	if err := p.Register("bad", func(context.Context, *Invocation) (any, error) { return nil, wantErr }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "bad", nil); err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestContextCancellation(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("slow", func(context.Context, *Invocation) (any, error) {
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Invoke(ctx, "slow", nil); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	p, err := New(quickConfig(ModeBatch))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "echo", nil); err == nil {
		t.Error("Invoke after Close accepted")
	}
	if err := p.Register("x", echo); err == nil {
		t.Error("Register after Close accepted")
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestCloseFlushesPendingWindow(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.DispatchInterval = 10 * time.Second // window would never fire in time
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "echo", nil)
		done <- err
	}()
	// Let the invocation enqueue, then close: the flush must serve it.
	time.Sleep(30 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("flushed invoke failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending invocation never completed after Close")
	}
}

// TestKeepAliveEviction pins exact keep-alive: each function's container
// is retired within a small tolerance after its own park instant plus
// KeepAlive, whatever the phase between the functions' parks. Five
// functions parked across 40 ms leave no room for a shared eviction
// cadence to be on time for all of them.
func TestKeepAliveEviction(t *testing.T) {
	const (
		keepAlive = 200 * time.Millisecond
		fns       = 5
		tolerance = 20 * time.Millisecond
	)
	cfg := quickConfig(ModeBatch)
	cfg.KeepAlive = keepAlive
	p := newPlatform(t, cfg)
	shards := make([]*function, fns)
	for i := range shards {
		name := "f" + strconv.Itoa(i)
		if err := p.Register(name, echo); err != nil {
			t.Fatalf("Register: %v", err)
		}
		shards[i] = p.lookup(name)
	}
	var wg sync.WaitGroup
	for _, f := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), f.name, nil); err != nil {
				t.Errorf("Invoke %s: %v", f.name, err)
			}
		}()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	due := make([]time.Time, fns)
	for i, f := range shards {
		f.mu.Lock()
		if len(f.warm) != 1 {
			f.mu.Unlock()
			t.Fatalf("%s has %d parked containers, want 1", f.name, len(f.warm))
		}
		due[i] = p.epoch.Add(f.warm[0].idleAt + keepAlive)
		f.mu.Unlock()
	}
	retired := make([]time.Time, fns)
	giveUp := time.Now().Add(5 * time.Second)
	for left := fns; left > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatalf("%d of %d containers still alive 5 s after parking", left, fns)
		}
		for i, f := range shards {
			if !retired[i].IsZero() {
				continue
			}
			f.mu.Lock()
			gone := len(f.all) == 0
			f.mu.Unlock()
			if gone {
				retired[i] = time.Now()
				left--
			}
		}
	}
	for i, f := range shards {
		switch late := retired[i].Sub(due[i]); {
		case late < 0:
			t.Errorf("%s retired %v before its keep-alive ran out", f.name, -late)
		case late > tolerance:
			t.Errorf("%s retired %v after its keep-alive ran out, want within %v", f.name, late, tolerance)
		}
	}
	if live := p.Stats().LiveContainers; live != 0 {
		t.Fatalf("LiveContainers = %d, want 0 after keep-alive", live)
	}
}

func TestBatchLoadManyFunctions(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	const fns = 5
	for i := 0; i < fns; i++ {
		name := "f" + strconv.Itoa(i)
		if err := p.Register(name, echo); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	const perFn = 8
	var wg sync.WaitGroup
	for i := 0; i < fns; i++ {
		name := "f" + strconv.Itoa(i)
		for j := 0; j < perFn; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Invoke(context.Background(), name, nil); err != nil {
					t.Errorf("Invoke %s: %v", name, err)
				}
			}()
		}
	}
	wg.Wait()
	st := p.Stats()
	if st.Invocations != fns*perFn {
		t.Fatalf("Invocations = %d, want %d", st.Invocations, fns*perFn)
	}
	// Groups are per function per window: far fewer than invocations.
	if st.Groups >= st.Invocations {
		t.Fatalf("Groups = %d not fewer than invocations %d", st.Groups, st.Invocations)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("boom", func(context.Context, *Invocation) (any, error) {
		panic("kaboom")
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Register("fine", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	_, err := p.Invoke(context.Background(), "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
	// The platform survives: other functions keep working.
	if _, err := p.Invoke(context.Background(), "fine", json.RawMessage(`1`)); err != nil {
		t.Fatalf("platform broken after panic: %v", err)
	}
}

func TestPanicInsideBatchDoesNotPoisonSiblings(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("mixed", func(_ context.Context, inv *Invocation) (any, error) {
		if string(inv.Payload) == "bad" {
			panic("one rotten apple")
		}
		return "ok", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := json.RawMessage(`"good"`)
			if i == 0 {
				payload = json.RawMessage(`bad`)
			}
			_, errs[i] = p.Invoke(context.Background(), "mixed", payload)
		}()
	}
	wg.Wait()
	bad, good := 0, 0
	for _, err := range errs {
		if err != nil {
			bad++
		} else {
			good++
		}
	}
	if bad != 1 || good != 5 {
		t.Fatalf("bad=%d good=%d, want 1/5 (panic isolated)", bad, good)
	}
}

func TestFunctionsListing(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	for _, name := range []string{"zeta", "alpha"} {
		if err := p.Register(name, echo); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	got := p.Functions()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Functions = %v, want sorted [alpha zeta]", got)
	}
}
