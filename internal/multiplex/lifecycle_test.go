package multiplex

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/obs/obstest"
)

// closeRecorder is a cacheable instance whose OnEvict-driven close is
// observable.
type closeRecorder struct {
	name   string
	closed atomic.Int64
}

// TestBuildPanicFailsPendingEntry: a panicking constructor on the miss
// path re-raises to its caller, but first settles the pending entry so
// the key is not poisoned — coalesced waiters wake and the next caller
// rebuilds instead of blocking forever.
func TestBuildPanicFailsPendingEntry(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the building caller")
			}
		}()
		_, _, _ = acquire(c, context.Background(), key, func() (any, int64, error) {
			panic("constructor exploded")
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, out, err := acquire(c, ctx, key, func() (any, int64, error) {
		return "rebuilt", 1, nil
	})
	if err != nil || out != OutcomeMiss || v != "rebuilt" {
		t.Fatalf("post-panic get = %v, %v, %v; want a fresh miss (key not poisoned)", v, out, err)
	}
	if st := c.Stats(); st.BuildFailures != 1 {
		t.Fatalf("BuildFailures = %d, want 1 for the panicked build", st.BuildFailures)
	}
}

// TestFailedBuildWakesCoalescedAcquirers: callers coalesced on a build
// that fails wake up, and the first of them to retry builds again — a
// failed build is not remembered.
func TestFailedBuildWakesCoalescedAcquirers(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	started, gate := make(chan struct{}), make(chan struct{})
	cause := errors.New("endpoint down")
	builderDone := make(chan error, 1)
	go func() {
		_, _, err := acquire(c, context.Background(), key, func() (any, int64, error) {
			close(started)
			<-gate
			return nil, 0, cause
		})
		builderDone <- err
	}()
	<-started
	const waiters = 3
	var rebuilds atomic.Int64
	type result struct {
		v   any
		out Outcome
		err error
	}
	results := make(chan result, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, out, err := acquire(c, context.Background(), key, func() (any, int64, error) {
				rebuilds.Add(1)
				return "rebuilt", 1, nil
			})
			results <- result{v, out, err}
		}()
	}
	// The builder claimed the key and every waiter coalesced on it.
	deadline := time.Now().Add(2 * time.Second)
	for st := c.Stats(); st.Misses != 1 || st.Coalesced != waiters; st = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never coalesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-builderDone; !errors.Is(err, ErrBuildFailed) || !errors.Is(err, cause) {
		t.Fatalf("builder err = %v, want ErrBuildFailed and its cause", err)
	}
	misses := 0
	for i := 0; i < waiters; i++ {
		r := <-results
		if r.err != nil || r.v != "rebuilt" {
			t.Fatalf("woken waiter = %v, %v, %v; want the rebuilt instance", r.v, r.out, r.err)
		}
		if r.out == OutcomeMiss {
			misses++
		}
	}
	if misses != 1 || rebuilds.Load() != 1 {
		t.Fatalf("%d waiters rebuilt (%d constructor runs), want exactly one", misses, rebuilds.Load())
	}
	if st := c.Stats(); st.BuildFailures != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want one failed build and one rebuild", st)
	}
}

// TestAcquireDefersEvictionUntilRelease: an instance lent out by Acquire
// may be evicted from the cache, but its OnEvict (the platform's closer)
// must wait for the borrower's release.
func TestAcquireDefersEvictionUntilRelease(t *testing.T) {
	inst := &closeRecorder{name: "borrowed"}
	c := NewWithConfig(Config{MaxEntries: 1, OnEvict: func(_ Key, v any, _ int64) {
		if r, ok := v.(*closeRecorder); ok {
			r.closed.Add(1)
		}
	}})
	keyA, keyB := NewKey("client", "a"), NewKey("client", "b")
	v, out, loan, err := c.Acquire(context.Background(), keyA, func() (any, int64, error) {
		return inst, 4, nil
	})
	if err != nil || out != OutcomeMiss || v != inst {
		t.Fatalf("acquire = %v, %v, %v", v, out, err)
	}
	// Overflow the 1-entry cache: A is evicted while still borrowed.
	if _, _, err := acquire(c, context.Background(), keyB, func() (any, int64, error) {
		return "other", 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1 (A left the cache)", st.Evictions)
	}
	if n := inst.closed.Load(); n != 0 {
		t.Fatalf("borrowed instance closed %d times before release", n)
	}
	loan.Release()
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("released instance closed %d times, want 1", n)
	}
	loan.Release() // a second release of one loan is a no-op
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("double release re-closed: %d", n)
	}
}

// TestAcquireSharedBorrowLastReleaseCloses: several concurrent borrowers
// of the same instance — the eviction close fires only when the last one
// releases.
func TestAcquireSharedBorrowLastReleaseCloses(t *testing.T) {
	inst := &closeRecorder{name: "shared"}
	c := NewWithConfig(Config{OnEvict: func(_ Key, v any, _ int64) {
		if r, ok := v.(*closeRecorder); ok {
			r.closed.Add(1)
		}
	}})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return inst, 4, nil }
	_, _, rel1, err := c.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rel2, err := c.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(key)
	rel1.Release()
	if n := inst.closed.Load(); n != 0 {
		t.Fatalf("closed after first of two releases: %d", n)
	}
	rel2.Release()
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("closed %d times after last release, want 1", n)
	}
}

// TestInvalidateUnderConcurrentLoansClosesOnceAfterLast: 64 goroutines
// hold a loan on one key when Invalidate drops it. OnEvict fires exactly
// once, only after the 64th release, and outside the cache lock.
func TestInvalidateUnderConcurrentLoansClosesOnceAfterLast(t *testing.T) {
	const borrowers = 64
	inst := &closeRecorder{name: "shared"}
	var c *Cache
	var released, early, underLock atomic.Int64
	c = NewWithConfig(Config{OnEvict: func(_ Key, v any, _ int64) {
		if released.Load() != borrowers {
			early.Add(1)
		}
		// The hook runs outside the cache lock iff the lock can be taken.
		if mu := &c.mu; mu.TryLock() {
			mu.Unlock()
		} else {
			underLock.Add(1)
		}
		v.(*closeRecorder).closed.Add(1)
	}})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return inst, 4, nil }

	var held, done sync.WaitGroup
	invalidated := make(chan struct{})
	held.Add(borrowers)
	done.Add(borrowers)
	for i := 0; i < borrowers; i++ {
		go func() {
			defer done.Done()
			v, _, loan, err := c.Acquire(context.Background(), key, build)
			if err != nil || v != inst {
				t.Errorf("acquire = %v, %v", v, err)
			}
			held.Done()
			<-invalidated
			released.Add(1)
			loan.Release()
		}()
	}
	held.Wait()
	if !c.Invalidate(key) {
		t.Fatal("Invalidate found no entry")
	}
	if n := inst.closed.Load(); n != 0 {
		t.Fatalf("instance closed %d times while %d loans were out", n, borrowers)
	}
	close(invalidated)
	done.Wait()
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("instance closed %d times, want 1", n)
	}
	if early.Load() != 0 {
		t.Fatal("OnEvict fired before the last loan was released")
	}
	if underLock.Load() != 0 {
		t.Fatal("OnEvict ran under the cache lock")
	}
}

// TestAcquireHitAllocFree: with an OnEvict hook configured — what the
// platform always runs (containerCacheConfig) — a hit and its release
// allocate nothing.
func TestAcquireHitAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewWithConfig(Config{OnEvict: func(Key, any, int64) {}})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return &closeRecorder{}, 4, nil }
	ctx := context.Background()
	hit := func() {
		_, out, loan, err := c.Acquire(ctx, key, build)
		if err != nil || (out != OutcomeHit && out != OutcomeMiss) {
			t.Fatalf("acquire = %v, %v", out, err)
		}
		loan.Release()
	}
	hit() // the miss that publishes the instance
	if avg := testing.AllocsPerRun(200, hit); avg != 0 {
		t.Fatalf("Acquire hit + release allocates %.1f objects/op, want 0", avg)
	}
}

// TestAcquireClosedCache keeps the typed-error contract on the borrowing
// face and proves the loan of an error outcome is safe to release.
func TestAcquireClosedCache(t *testing.T) {
	c := NewWithConfig(Config{})
	c.Close()
	_, out, loan, err := c.Acquire(context.Background(), NewKey("c", "a"),
		func() (any, int64, error) { return "v", 1, nil })
	if out != OutcomeError || !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("closed acquire = %v, %v", out, err)
	}
	loan.Release()
	loan.Release()
}
