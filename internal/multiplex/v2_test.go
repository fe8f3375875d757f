package multiplex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// testClock is a hand-cranked monotonic clock for deterministic TTL and
// backoff arithmetic.
type testClock struct{ ns atomic.Int64 }

func (tc *testClock) now() time.Duration      { return time.Duration(tc.ns.Load()) }
func (tc *testClock) advance(d time.Duration) { tc.ns.Add(int64(d)) }
func (tc *testClock) set(d time.Duration)     { tc.ns.Store(int64(d)) }
func newTestClock(start time.Duration) *testClock {
	tc := &testClock{}
	tc.set(start)
	return tc
}

func TestOutcomeStringAndCached(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeCoalesced: "coalesced",
		OutcomeStale: "stale", OutcomeNegative: "negative", OutcomeError: "error",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Outcome(42).String() != "outcome(42)" {
		t.Errorf("unknown outcome string = %q", Outcome(42).String())
	}
	for _, o := range []Outcome{OutcomeHit, OutcomeCoalesced, OutcomeStale} {
		if !o.Cached() {
			t.Errorf("%v.Cached() = false, want true", o)
		}
	}
	for _, o := range []Outcome{OutcomeMiss, OutcomeNegative, OutcomeError} {
		if o.Cached() {
			t.Errorf("%v.Cached() = true, want false", o)
		}
	}
	if BeginStale.String() != "stale" || BeginNegative.String() != "negative" {
		t.Error("new BeginResult strings wrong")
	}
}

func TestGetOrBuildContextOutcomes(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return "inst", 10, nil }
	v, out, err := c.GetOrBuildContext(context.Background(), key, build)
	if err != nil || out != OutcomeMiss || v != "inst" {
		t.Fatalf("first = %v, %v, %v; want inst, miss, nil", v, out, err)
	}
	v, out, err = c.GetOrBuildContext(context.Background(), key, build)
	if err != nil || out != OutcomeHit || v != "inst" {
		t.Fatalf("second = %v, %v, %v; want inst, hit, nil", v, out, err)
	}
}

func TestGetOrBuildContextTypedBuildError(t *testing.T) {
	c := NewWithConfig(Config{})
	cause := errors.New("no network")
	_, out, err := c.GetOrBuildContext(context.Background(), NewKey("c", "a"),
		func() (any, int64, error) { return nil, 0, cause })
	if out != OutcomeError {
		t.Fatalf("outcome = %v, want error", out)
	}
	if !errors.Is(err, ErrBuildFailed) {
		t.Fatalf("err = %v, want ErrBuildFailed in chain", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want cause in chain", err)
	}
	if st := c.Stats(); st.BuildFailures != 1 {
		t.Fatalf("BuildFailures = %d, want 1", st.BuildFailures)
	}
}

func TestTTLExpiryReleasesThroughOnEvict(t *testing.T) {
	clock := newTestClock(0)
	var released []Key
	c := NewWithConfig(Config{
		Shards:  1,
		TTL:     100 * time.Millisecond,
		Now:     clock.now,
		OnEvict: func(k Key, _ any, _ int64) { released = append(released, k) },
	})
	key := NewKey("client", "args")
	if _, out, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		return "v1", 5, nil
	}); err != nil || out != OutcomeMiss {
		t.Fatalf("build = %v, %v", out, err)
	}
	clock.advance(50 * time.Millisecond)
	if _, out, _ := c.GetOrBuildContext(context.Background(), key, nil); out != OutcomeHit {
		t.Fatalf("pre-expiry outcome = %v, want hit", out)
	}
	clock.advance(60 * time.Millisecond) // now 110ms > TTL
	builds := 0
	v, out, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		builds++
		return "v2", 5, nil
	})
	if err != nil || out != OutcomeMiss || v != "v2" || builds != 1 {
		t.Fatalf("post-expiry = %v, %v, %v (builds %d); want v2, miss, nil, 1", v, out, err, builds)
	}
	if len(released) != 1 || released[0] != key {
		t.Fatalf("released = %v, want [key]", released)
	}
	st := c.Stats()
	if st.Expired != 1 || st.LiveInstances != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStaleWhileRevalidateBlockingFace(t *testing.T) {
	clock := newTestClock(0)
	var released atomic.Int64
	c := NewWithConfig(Config{
		Shards:        1,
		TTL:           100 * time.Millisecond,
		RefreshWindow: 30 * time.Millisecond,
		Now:           clock.now,
		OnEvict:       func(Key, any, int64) { released.Add(1) },
	})
	key := NewKey("client", "args")
	if _, _, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		return "v1", 5, nil
	}); err != nil {
		t.Fatal(err)
	}
	clock.advance(80 * time.Millisecond) // inside [70ms, 100ms) refresh window
	refreshed := make(chan struct{})
	v, out, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		defer close(refreshed)
		return "v2", 7, nil
	})
	if err != nil || out != OutcomeStale || v != "v1" {
		t.Fatalf("stale get = %v, %v, %v; want v1, stale, nil", v, out, err)
	}
	<-refreshed
	// The refresh publishes asynchronously after the build returns; poll
	// until the replacement lands.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, out, err = c.GetOrBuildContext(context.Background(), key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh never landed; still %v (%v)", v, out)
		}
		time.Sleep(time.Millisecond)
	}
	if out != OutcomeHit {
		t.Fatalf("post-refresh outcome = %v, want hit", out)
	}
	st := c.Stats()
	if st.StaleHits != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if released.Load() != 1 {
		t.Fatalf("released %d instances, want 1 (the replaced stale one)", released.Load())
	}
	if st.BytesLive != 7 {
		t.Fatalf("BytesLive = %d, want the refreshed instance's 7", st.BytesLive)
	}
}

func TestStaleWhileRevalidateEventFace(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond, Now: clock.now})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "v1", 5)
	clock.advance(75 * time.Millisecond)
	res, inst := c.Begin(key)
	if res != BeginStale || inst != "v1" {
		t.Fatalf("Begin in refresh window = %v, %v; want stale, v1", res, inst)
	}
	// While this caller refreshes, others still hit the stale instance —
	// no stampede.
	if res, inst := c.Begin(key); res != BeginHit || inst != "v1" {
		t.Fatalf("concurrent Begin = %v, %v; want hit, v1", res, inst)
	}
	c.Complete(key, "v2", 6)
	if res, inst := c.Begin(key); res != BeginHit || inst != "v2" {
		t.Fatalf("post-refresh Begin = %v, %v; want hit, v2", res, inst)
	}
}

func TestFailedRefreshKeepsStaleInstance(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond, Now: clock.now})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "v1", 5)
	clock.advance(80 * time.Millisecond)
	if res, _ := c.Begin(key); res != BeginStale {
		t.Fatal("expected stale")
	}
	c.Fail(key)
	// Still servable until hard expiry.
	if res, inst := c.Begin(key); res != BeginStale || inst != "v1" {
		t.Fatalf("Begin after failed refresh = %v, %v; want another stale attempt on v1", res, inst)
	}
	c.Fail(key)
	clock.advance(30 * time.Millisecond) // past hard TTL
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("expired entry should miss")
	}
}

func TestNegativeCacheDeniesWithBackoff(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, NegativeBackoff: 100 * time.Millisecond, NegativeBackoffMax: time.Second, Now: clock.now})
	key := NewKey("client", "args")
	cause := errors.New("endpoint down")
	builds := 0
	failing := func() (any, int64, error) { builds++; return nil, 0, cause }

	if _, out, err := c.GetOrBuildContext(context.Background(), key, failing); out != OutcomeError || !errors.Is(err, cause) {
		t.Fatalf("first = %v, %v", out, err)
	}
	// Denied without building while the backoff holds.
	_, out, err := c.GetOrBuildContext(context.Background(), key, failing)
	if out != OutcomeNegative || !errors.Is(err, ErrBuildFailed) || !errors.Is(err, cause) {
		t.Fatalf("second = %v, %v; want negative, ErrBuildFailed+cause", out, err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (negative cache must absorb)", builds)
	}
	// Backoff elapses: one probe runs and fails; backoff doubles.
	clock.advance(110 * time.Millisecond)
	if _, out, _ := c.GetOrBuildContext(context.Background(), key, failing); out != OutcomeError {
		t.Fatalf("probe outcome = %v, want error", out)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}
	clock.advance(150 * time.Millisecond) // 150 < doubled backoff 200
	if _, out, _ := c.GetOrBuildContext(context.Background(), key, failing); out != OutcomeNegative {
		t.Fatal("doubled backoff should still deny")
	}
	clock.advance(100 * time.Millisecond) // 250 >= 200
	v, out, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		return "recovered", 1, nil
	})
	if err != nil || out != OutcomeMiss || v != "recovered" {
		t.Fatalf("recovery = %v, %v, %v", v, out, err)
	}
	// Success resets the failure streak.
	st := c.Stats()
	if st.NegativeHits != 2 || st.BuildFailures != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNegativeBackoffCap(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, NegativeBackoff: 100 * time.Millisecond, NegativeBackoffMax: 250 * time.Millisecond, Now: clock.now})
	key := NewKey("client", "args")
	fail := func() (any, int64, error) { return nil, 0, errors.New("down") }
	for i := 0; i < 5; i++ {
		c.GetOrBuildContext(context.Background(), key, fail)
		clock.advance(260 * time.Millisecond) // past even the capped backoff
	}
	// After many failures the backoff is capped at 250ms, so 260ms later a
	// probe is always allowed.
	if _, out, _ := c.GetOrBuildContext(context.Background(), key, fail); out != OutcomeError {
		t.Fatalf("outcome = %v, want error (probe allowed past cap)", out)
	}
}

func TestNegativeEventFace(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, NegativeBackoff: 100 * time.Millisecond, NegativeBackoffMax: 0, Now: clock.now})
	key := NewKey("client", "args")
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("want miss")
	}
	c.FailErr(key, errors.New("down"))
	if res, _ := c.Begin(key); res != BeginNegative {
		t.Fatal("want negative denial during backoff")
	}
	// Waiters on a negative key resolve immediately with nil.
	fired := false
	c.Wait(key, func(v any) {
		fired = true
		if v != nil {
			t.Errorf("waiter got %v, want nil", v)
		}
	})
	if !fired {
		t.Fatal("Wait on negative key did not fire")
	}
	clock.advance(150 * time.Millisecond)
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("want probe miss after backoff")
	}
	c.Complete(key, "ok", 1)
	if res, inst := c.Begin(key); res != BeginHit || inst != "ok" {
		t.Fatal("recovery should serve hits")
	}
}

func TestInvalidate(t *testing.T) {
	var released []Key
	c := NewWithConfig(Config{Shards: 1, OnEvict: func(k Key, _ any, _ int64) { released = append(released, k) }})
	key := NewKey("client", "args")
	if c.Invalidate(key) {
		t.Fatal("invalidate on absent key should report false")
	}
	c.Begin(key)
	if c.Invalidate(key) {
		t.Fatal("invalidate must not touch a pending build")
	}
	c.Complete(key, "v", 3)
	if !c.Invalidate(key) {
		t.Fatal("invalidate on ready key should report true")
	}
	if len(released) != 1 || released[0] != key {
		t.Fatalf("released = %v", released)
	}
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("invalidated key should rebuild")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.LiveInstances != 0 || st.BytesLive != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidateResetsNegativeEntry(t *testing.T) {
	clock := newTestClock(0)
	c := NewWithConfig(Config{Shards: 1, NegativeBackoff: time.Hour, NegativeBackoffMax: 0, Now: clock.now})
	key := NewKey("client", "args")
	c.Begin(key)
	c.FailErr(key, errors.New("down"))
	if res, _ := c.Begin(key); res != BeginNegative {
		t.Fatal("want negative")
	}
	if !c.Invalidate(key) {
		t.Fatal("invalidate on negative key should report true")
	}
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("invalidated negative key should allow an immediate probe")
	}
}

func TestClosedCacheTypedError(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "v", 1)
	c.Close()
	_, out, err := c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
		return "fresh", 1, nil
	})
	if out != OutcomeError || !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("closed get = %v, %v; want error, ErrCacheClosed", out, err)
	}
}

func TestCloseReleasesReadyInstancesThroughOnEvict(t *testing.T) {
	var released int
	c := NewWithConfig(Config{OnEvict: func(Key, any, int64) { released++ }})
	for i := 0; i < 3; i++ {
		k := NewKey("c", fmt.Sprintf("%d", i))
		c.Begin(k)
		c.Complete(k, i, 10)
	}
	if freed := c.Close(); freed != 30 {
		t.Fatalf("freed = %d, want 30", freed)
	}
	if released != 3 {
		t.Fatalf("released = %d, want 3 (Closer hook runs at teardown)", released)
	}
	if c.Close() != 0 {
		t.Fatal("second Close should free nothing")
	}
}

func TestCompleteAfterCloseReleasesOrphan(t *testing.T) {
	var released int
	c := NewWithConfig(Config{OnEvict: func(Key, any, int64) { released++ }})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Close()
	c.Complete(key, "orphan", 1)
	if released != 1 {
		t.Fatalf("released = %d, want 1 (orphaned build must not leak)", released)
	}
}

func TestGetOrBuildContextCancellationWhileCoalesced(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrBuildContext(context.Background(), key, func() (any, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.GetOrBuildContext(ctx, key, nil)
	if out != OutcomeError || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, %v; want error, context.Canceled", out, err)
	}
	close(release)
}

func TestShardsRoundedAndClamped(t *testing.T) {
	if n := NewWithConfig(Config{Shards: 5}).Stats().Shards; n != 8 {
		t.Fatalf("Shards(5) rounded to %d, want 8", n)
	}
	// Capacity 2 cannot feed 8 shards a slot each: clamp to 2.
	if n := NewWithConfig(Config{Shards: 8, MaxEntries: 2}).Stats().Shards; n != 2 {
		t.Fatalf("shards with MaxEntries 2 = %d, want 2", n)
	}
	if n := NewWithConfig(Config{}).Stats().Shards; n < 8 {
		t.Fatalf("auto shards = %d, want >= 8", n)
	}
}

func TestShardedKeysDistribute(t *testing.T) {
	c := NewWithConfig(Config{Shards: 16})
	for i := 0; i < 256; i++ {
		k := NewKey("client", fmt.Sprintf("args-%d", i))
		c.Begin(k)
		c.Complete(k, i, 1)
	}
	st := c.Stats()
	if st.LiveInstances != 256 {
		t.Fatalf("LiveInstances = %d", st.LiveInstances)
	}
	// With 256 keys over 16 shards a catastrophic hash would pile most
	// keys on one shard; allow generous slack over the ideal 16.
	if st.MaxShardOccupancy > 48 {
		t.Fatalf("MaxShardOccupancy = %d over 16 shards for 256 keys: hash is skewed", st.MaxShardOccupancy)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, LiveInstances: 3, BytesLive: 10, Shards: 4, MaxShardOccupancy: 2, Evictions: 1}
	b := Stats{Hits: 10, Coalesced: 5, LiveInstances: 1, BytesLive: 5, Shards: 8, MaxShardOccupancy: 7, Expired: 2}
	a.Add(b)
	if a.Hits != 11 || a.Coalesced != 5 || a.Misses != 2 || a.LiveInstances != 4 ||
		a.BytesLive != 15 || a.Shards != 12 || a.MaxShardOccupancy != 7 ||
		a.Evictions != 1 || a.Expired != 2 {
		t.Fatalf("Add result = %+v", a)
	}
}

// TestConcurrentMixedStress is the -race stress test: 16 goroutines over a
// mixed key population — always-hit keys, TTL-churning keys, and keys
// whose builds fail — with a capacity bound, negative caching and
// stale-while-revalidate all enabled at once.
func TestConcurrentMixedStress(t *testing.T) {
	c := NewWithConfig(Config{
		Shards:             8,
		MaxEntries:         32,
		TTL:                5 * time.Millisecond,
		RefreshWindow:      time.Millisecond,
		NegativeBackoff:    time.Millisecond,
		NegativeBackoffMax: 8 * time.Millisecond,
		OnEvict:            func(Key, any, int64) {},
	})
	const goroutines = 16
	const opsPerG = 400
	var wg sync.WaitGroup
	var builds, failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				kind := rng.Intn(100)
				var key Key
				var build func() (any, int64, error)
				switch {
				case kind < 60: // hot hit keys
					key = NewKey("hot", fmt.Sprintf("%d", rng.Intn(8)))
					build = func() (any, int64, error) { builds.Add(1); return "v", 1, nil }
				case kind < 85: // churn keys (wide space, bound forces eviction)
					key = NewKey("churn", fmt.Sprintf("%d", rng.Intn(128)))
					build = func() (any, int64, error) { builds.Add(1); return "v", 1, nil }
				default: // failing keys
					key = NewKey("bad", fmt.Sprintf("%d", rng.Intn(4)))
					build = func() (any, int64, error) {
						failures.Add(1)
						return nil, 0, errors.New("injected")
					}
				}
				if rng.Intn(50) == 0 {
					c.Invalidate(key)
					continue
				}
				v, out, err := c.GetOrBuildContext(context.Background(), key, build)
				switch out {
				case OutcomeHit, OutcomeMiss, OutcomeCoalesced, OutcomeStale:
					if err != nil || v == nil {
						t.Errorf("outcome %v with v=%v err=%v", out, v, err)
					}
				case OutcomeNegative, OutcomeError:
					if err == nil {
						t.Errorf("outcome %v without error", out)
					}
				default:
					t.Errorf("unknown outcome %v", out)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.LiveInstances > 32 {
		t.Fatalf("LiveInstances = %d exceeds bound 32", st.LiveInstances)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if freed := c.Close(); freed < 0 {
		t.Fatalf("Close freed %d", freed)
	}
	if st := c.Stats(); st.LiveInstances != 0 || st.BytesLive != 0 {
		t.Fatalf("stats after close = %+v", st)
	}
}

// Property: under any op sequence, (a) ready instances never exceed the
// configured capacity, and (b) an in-flight build is never evicted — its
// Complete always lands, so an immediate Begin hits.
func TestPropertyBoundNeverExceededAndInflightNeverEvicted(t *testing.T) {
	f := func(ops []uint16, boundRaw, shardsRaw uint8) bool {
		bound := int(boundRaw%8) + 1
		shards := 1 << (shardsRaw % 3) // 1, 2 or 4
		c := NewWithConfig(Config{Shards: shards, MaxEntries: bound})
		pending := map[Key]bool{}
		for _, op := range ops {
			key := NewKey("c", fmt.Sprintf("%d", op%32))
			switch {
			case pending[key]:
				// Settle the in-flight build; it must never have been
				// evicted, so the publish must be observable immediately.
				c.Complete(key, "v", 1)
				delete(pending, key)
				if res, _ := c.Begin(key); res != BeginHit {
					return false
				}
			default:
				res, _ := c.Begin(key)
				if res == BeginMiss {
					if op%3 == 0 {
						pending[key] = true // leave in flight
					} else {
						c.Complete(key, "v", 1)
					}
				}
			}
			if st := c.Stats(); st.LiveInstances > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
