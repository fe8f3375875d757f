package multiplex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestOutcomeStringAndCached(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeCoalesced: "coalesced", OutcomeError: "error",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Outcome(42).String() != "outcome(42)" {
		t.Errorf("unknown outcome string = %q", Outcome(42).String())
	}
	for _, o := range []Outcome{OutcomeHit, OutcomeCoalesced} {
		if !o.Cached() {
			t.Errorf("%v.Cached() = false, want true", o)
		}
	}
	for _, o := range []Outcome{OutcomeMiss, OutcomeError} {
		if o.Cached() {
			t.Errorf("%v.Cached() = true, want false", o)
		}
	}
}

// acquire is Acquire for a caller done with the instance at once: the
// loan is released before returning.
func acquire(c *Cache, ctx context.Context, key Key, build func() (any, int64, error)) (any, Outcome, error) {
	v, out, loan, err := c.Acquire(ctx, key, build)
	loan.Release()
	return v, out, err
}

func TestGetOrBuildContextOutcomes(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return "inst", 10, nil }
	v, out, err := acquire(c, context.Background(), key, build)
	if err != nil || out != OutcomeMiss || v != "inst" {
		t.Fatalf("first = %v, %v, %v; want inst, miss, nil", v, out, err)
	}
	v, out, err = acquire(c, context.Background(), key, build)
	if err != nil || out != OutcomeHit || v != "inst" {
		t.Fatalf("second = %v, %v, %v; want inst, hit, nil", v, out, err)
	}
}

func TestGetOrBuildContextTypedBuildError(t *testing.T) {
	c := NewWithConfig(Config{})
	cause := errors.New("no network")
	_, out, err := acquire(c, context.Background(), NewKey("c", "a"),
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

func TestInvalidate(t *testing.T) {
	var released []Key
	c := NewWithConfig(Config{OnEvict: func(k Key, _ any, _ int64) { released = append(released, k) }})
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

func TestClosedCacheTypedError(t *testing.T) {
	c := NewWithConfig(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "v", 1)
	c.Close()
	_, out, err := acquire(c, context.Background(), key, func() (any, int64, error) {
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
		_, _, _ = acquire(c, context.Background(), key, func() (any, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := acquire(c, ctx, key, nil)
	if out != OutcomeError || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, %v; want error, context.Canceled", out, err)
	}
	close(release)
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, LiveInstances: 3, BytesLive: 10, Evictions: 1}
	b := Stats{Hits: 10, Coalesced: 5, LiveInstances: 1, BytesLive: 5, Evictions: 2}
	a.Add(b)
	if a.Hits != 11 || a.Coalesced != 5 || a.Misses != 2 || a.LiveInstances != 4 ||
		a.BytesLive != 15 || a.Evictions != 3 {
		t.Fatalf("Add result = %+v", a)
	}
}

// TestConcurrentMixedStress is the -race stress test: 16 goroutines over a
// mixed key population — always-hit keys, keys churned out by the
// capacity bound, and keys whose builds fail — holding loans across
// evictions and invalidations.
func TestConcurrentMixedStress(t *testing.T) {
	c := NewWithConfig(Config{
		MaxEntries: 32,
		OnEvict:    func(Key, any, int64) {},
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
				v, out, loan, err := c.Acquire(context.Background(), key, build)
				switch out {
				case OutcomeHit, OutcomeMiss, OutcomeCoalesced:
					if err != nil || v == nil {
						t.Errorf("outcome %v with v=%v err=%v", out, v, err)
					}
				case OutcomeError:
					if !errors.Is(err, ErrBuildFailed) {
						t.Errorf("outcome %v with err=%v, want ErrBuildFailed", out, err)
					}
				default:
					t.Errorf("unknown outcome %v", out)
				}
				loan.Release()
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

// lruModel is the sequential reference for the cache's capacity bound: the
// ready keys, most recently used first.
type lruModel []Key

// touch moves k to the front.
func (m *lruModel) touch(k Key) {
	for i, x := range *m {
		if x == k {
			copy((*m)[1:i+1], (*m)[:i])
			(*m)[0] = k
			return
		}
	}
}

// publish puts k at the front and returns the victims a bound of n evicts,
// least recently used first.
func (m *lruModel) publish(k Key, n int) []Key {
	*m = append(lruModel{k}, *m...)
	var out []Key
	for len(*m) > n {
		out = append(out, (*m)[len(*m)-1])
		*m = (*m)[:len(*m)-1]
	}
	return out
}

// Property: under any op sequence, (a) the bound evicts exactly the
// globally least-recently-used ready instance, checked against lruModel,
// so ready instances never exceed it and nothing is evicted below it, and
// (b) an in-flight build is never evicted — its Complete always lands, so
// an immediate Begin hits.
func TestPropertyBoundNeverExceededAndInflightNeverEvicted(t *testing.T) {
	bounds := []int{1, 2, 16}
	// Fill to the bound, touch the oldest key, then publish one more: only
	// the least recently used key may go.
	for _, n := range bounds {
		var evicted []Key
		c := NewWithConfig(Config{MaxEntries: n, OnEvict: func(k Key, _ any, _ int64) { evicted = append(evicted, k) }})
		var model lruModel
		for i := 0; i < n; i++ {
			k := NewKey("c", fmt.Sprintf("%d", i))
			c.Begin(k)
			c.Complete(k, i, 1)
			model.publish(k, n)
		}
		if st := c.Stats(); st.Evictions != 0 || st.LiveInstances != n || len(evicted) != 0 {
			t.Fatalf("bound %d: filling to the bound evicted %v (stats %+v)", n, evicted, st)
		}
		first := NewKey("c", "0")
		if res, _ := c.Begin(first); res != BeginHit {
			t.Fatalf("bound %d: first key missed", n)
		}
		model.touch(first)
		extra := NewKey("c", "extra")
		c.Begin(extra)
		c.Complete(extra, "v", 1)
		want := model.publish(extra, n)
		if st := c.Stats(); st.Evictions != 1 || len(evicted) != 1 || evicted[0] != want[0] {
			t.Fatalf("bound %d: evicted %v (stats %+v), want %v", n, evicted, st, want)
		}
	}

	f := func(ops []uint16, boundRaw uint8) bool {
		bound := bounds[int(boundRaw)%len(bounds)]
		var evicted []Key
		c := NewWithConfig(Config{MaxEntries: bound, OnEvict: func(k Key, _ any, _ int64) { evicted = append(evicted, k) }})
		var model lruModel
		var want []Key
		pending := map[Key]bool{}
		for _, op := range ops {
			key := NewKey("c", fmt.Sprintf("%d", op%32))
			switch {
			case pending[key]:
				// Settle the in-flight build; it must never have been
				// evicted, so the publish must be observable immediately.
				c.Complete(key, "v", 1)
				want = append(want, model.publish(key, bound)...)
				delete(pending, key)
				if res, _ := c.Begin(key); res != BeginHit {
					return false
				}
				model.touch(key)
			default:
				res, _ := c.Begin(key)
				switch {
				case res == BeginHit:
					model.touch(key)
				case op%3 == 0:
					pending[key] = true // leave in flight
				default:
					c.Complete(key, "v", 1)
					want = append(want, model.publish(key, bound)...)
				}
			}
			if st := c.Stats(); st.LiveInstances != len(model) || !reflect.DeepEqual(evicted, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
