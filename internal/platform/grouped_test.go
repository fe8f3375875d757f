package platform

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/obs/obstest"
)

// groupedConfig is the grouped path's steady state: windows that close the
// moment a function's group callers are all waiting, no cold-start
// simulation, multiplexer on.
func groupedConfig(group int) Config {
	return Config{
		Mode:             ModeBatch,
		AdaptiveDispatch: true,
		MaxGroupSize:     group,
		DispatchInterval: 20 * time.Millisecond,
		KeepAlive:        time.Minute,
		Multiplex:        true,
	}
}

func buildSharedClient() (any, int64, error) { return &struct{ _ int }{}, 1 << 10, nil }

// multiplexHit is the grouped handler: one multiplexer lookup that hits
// after the container's first invocation.
func multiplexHit(ctx context.Context, inv *Invocation) (any, error) {
	_, _, err := inv.Resources.GetContext(ctx, "storage.client", "shared", buildSharedClient)
	return nil, err
}

// TestCancelStorm cancels callers at seeded instants on both sides of
// their window's close, so the context's end races the claim and the
// ticket hand-off in every order. Whatever the order, no ticket may be
// orphaned (Close drains), every accepted call completes or is counted
// canceled, a canceled call never reaches its handler, and every
// container ends up parked.
func TestCancelStorm(t *testing.T) {
	const (
		fns     = 4
		callers = 256
		rounds  = 12
		window  = 2 * time.Millisecond
	)
	cfg := groupedConfig(32)
	cfg.DispatchInterval = window
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ran atomic.Int64
	for i := 0; i < fns; i++ {
		if err := p.Register(fmt.Sprintf("fn-%d", i), func(ctx context.Context, _ *Invocation) (any, error) {
			ran.Add(1)
			select {
			case <-time.After(100 * time.Microsecond):
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			fn := fmt.Sprintf("fn-%d", c%fns)
			for i := 0; i < rounds; i++ {
				// Groups of 32 close within microseconds while callers
				// arrive together and at the window's deadline once they
				// drift apart: offsets from zero to two windows straddle
				// both.
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Int63n(int64(2*window))))
				_, _ = p.Invoke(ctx, fn, nil)
				cancel()
			}
		}(c)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := p.Stats()
	if st.Submitted != callers*rounds {
		t.Errorf("Submitted = %d, want %d", st.Submitted, callers*rounds)
	}
	if st.Submitted != st.Invocations+st.Canceled {
		t.Errorf("conservation broken: Submitted=%d, Invocations=%d, Canceled=%d", st.Submitted, st.Invocations, st.Canceled)
	}
	if got := p.Inflight(); got != 0 {
		t.Errorf("Inflight = %d, want 0", got)
	}
	if got := ran.Load(); got != st.Invocations {
		t.Errorf("handler ran %d times for %d completed invocations: a canceled call reached its handler", got, st.Invocations)
	}
	if st.Canceled == 0 || st.Invocations == 0 {
		t.Errorf("storm was one-sided: Canceled=%d, Invocations=%d", st.Canceled, st.Invocations)
	}
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		if len(f.pending) != 0 {
			t.Errorf("%s: %d calls still pending after Close", f.name, len(f.pending))
		}
		if len(f.warm) != len(f.all) {
			t.Errorf("%s: %d of %d live containers parked warm", f.name, len(f.warm), len(f.all))
		}
		for _, c := range f.all {
			if c.active != 0 {
				t.Errorf("%s: container %s still has %d active", f.name, c.id, c.active)
			}
		}
		f.mu.Unlock()
	}
}

// groupRounds parks one caller goroutine per group member and returns a
// function that runs one full group: every caller invokes once.
func groupRounds(t *testing.T, p *Platform, fn string, members int) (round func(), stop func()) {
	start, done := make(chan struct{}), make(chan error)
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range start {
				_, err := p.Invoke(context.Background(), fn, nil)
				done <- err
			}
		}()
	}
	round = func() {
		for i := 0; i < members; i++ {
			start <- struct{}{}
		}
		for i := 0; i < members; i++ {
			if err := <-done; err != nil {
				t.Fatalf("invoke: %v", err)
			}
		}
	}
	return round, func() { close(start); wg.Wait() }
}

// TestGroupedInvokeAllocBudget is the grouped path's allocation gate, the
// companion of TestWarmInvokeAllocFree: a 32-member early-closed group —
// pooled calls and group, members expanded on their callers'
// goroutines, one multiplexer hit each on an inline loan — performs zero
// heap allocations.
func TestGroupedInvokeAllocBudget(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const members = 32
	cfg := groupedConfig(members)
	// Long enough that no pause of the test looks like an idle spell to
	// the dispatch controller, which would fast-path a round's first
	// arrival on its own.
	cfg.DispatchInterval = 5 * time.Second
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := p.Register("hit", multiplexHit); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// A lone first arrival takes the idle fast path and boots the
	// container; every arrival after it sees a dense stream and waits for
	// its group.
	if _, err := p.Invoke(context.Background(), "hit", nil); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	round, stop := groupRounds(t, p, "hit", members)
	defer stop()
	for i := 0; i < 16; i++ {
		round()
	}
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	before := p.Stats()
	const runs = 100
	avg := testing.AllocsPerRun(runs, round)
	after := p.Stats()
	// AllocsPerRun runs its function once more to warm up.
	if groups, early := after.Groups-before.Groups, after.EarlyCloses-before.EarlyCloses; groups != runs+1 || early != runs+1 {
		t.Fatalf("%d rounds dispatched %d groups, %d of them early closes; want every round one full group", runs+1, groups, early)
	}
	if avg != 0 {
		t.Fatalf("a %d-member group allocates %.1f objects, want 0", members, avg)
	}
}

// TestNoGoroutinePerGroupMember pins the caller-runs expansion: with every
// caller inside its handler, the process holds the callers' goroutines and
// nothing per member beside them.
func TestNoGoroutinePerGroupMember(t *testing.T) {
	const (
		fns     = 2
		members = 32
		callers = fns * members
	)
	cfg := groupedConfig(members)
	cfg.Multiplex = false
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	var running atomic.Int64
	barrier := make(chan struct{})
	for i := 0; i < fns; i++ {
		if err := p.Register(fmt.Sprintf("fn-%d", i), func(context.Context, *Invocation) (any, error) {
			running.Add(1)
			<-barrier
			return nil, nil
		}); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), fmt.Sprintf("fn-%d", c%fns), nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}(c)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.Load() != callers {
		if time.Now().After(deadline) {
			close(barrier)
			t.Fatalf("%d of %d handlers running", running.Load(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	// The slack covers a window closed by its deadline, whose closer is
	// the short-lived goroutine of that function's window timer.
	if during := settleGoroutines(t, base+callers, time.Second); during > base+callers {
		t.Errorf("%d goroutines with %d callers in their handlers (baseline %d): want callers + baseline", during, callers, base)
	}
	close(barrier)
	wg.Wait()
	if after := settleGoroutines(t, base, 3*time.Second); after > base {
		t.Errorf("goroutines settled at %d after the callers returned, baseline %d", after, base)
	}
}

// BenchmarkGroupedInvoke is batch_saturate's loop in the tree: 256
// callers in a closed loop, 32 to each of 8 functions, groups of 32, one
// multiplexer hit per invocation. The profile target for the grouped
// path.
func BenchmarkGroupedInvoke(b *testing.B) {
	const (
		fns     = 8
		members = 32
		callers = fns * members
	)
	p, err := New(groupedConfig(members))
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	for i := 0; i < fns; i++ {
		if err := p.Register(fmt.Sprintf("hit-%d", i), multiplexHit); err != nil {
			b.Fatalf("Register: %v", err)
		}
	}
	loop := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(fn string) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := p.Invoke(context.Background(), fn, nil); err != nil {
						b.Errorf("invoke: %v", err)
						return
					}
				}
			}(fmt.Sprintf("hit-%d", c%fns))
		}
		wg.Wait()
	}
	loop(16) // boot the containers, prime the pools
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N/callers + 1)
}
