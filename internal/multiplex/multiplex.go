// Package multiplex implements the paper's Resource Multiplexer (§III-D):
// a per-container resource-args-result cache that intercepts resource
// creation calls (e.g. building an S3 client), keys them by the callee and
// a hash of the creation arguments, and serves repeated creations from the
// cache instead of constructing duplicate instances.
//
// The cache is concurrent state sized for the live platform:
//
//   - Lock striping: entries spread over a power-of-two number of shards
//     keyed by a finalised hash of the Key, so concurrent creations on
//     different keys never contend on one mutex.
//   - Bounded capacity: per-shard LRU lists bound the ready instances
//     (Config.MaxEntries split across shards); every instance leaving the
//     cache passes through the OnEvict closer hook so evicted clients can
//     release sockets. Without a bound the container's keep-alive is what
//     limits an entry's life, as in the paper.
//   - Failure handling: a failed build wakes its coalesced waiters and is
//     forgotten, so the next creation builds again; Invalidate lets handler
//     feedback drop an instance that started erroring.
//
// The cache exposes two faces over one store:
//
//   - An event-driven face (Begin / Wait / Complete) used by the
//     discrete-event simulator, where "building" takes virtual time and
//     concurrent requesters for the same key coalesce onto the first
//     build.
//   - A blocking face (Acquire) used by the live platform, where the build
//     runs real code and concurrent goroutines coalesce singleflight-style.
//     Acquire lends the instance to the caller: evictions of a lent
//     instance defer the OnEvict hook until its release, so in-use clients
//     are never closed mid-request.
package multiplex

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"faasbatch/internal/hashmix"
)

// Key identifies a resource creation: the intercepted callee plus the
// hashed creation arguments. The paper hashes arguments to bound memory
// and speed up matching; collisions are ignored as negligibly likely at
// container scope (§III-D).
type Key struct {
	// Callee is the creation call, e.g. "boto3.client".
	Callee string
	// ArgsHash is the hash of the creation arguments.
	ArgsHash uint64
}

// HashArgs hashes creation arguments with FNV-1a.
func HashArgs(args string) uint64 { return hashmix.FNV64a(args) }

// NewKey builds a Key from a callee and raw argument string.
func NewKey(callee, args string) Key {
	return Key{Callee: callee, ArgsHash: HashArgs(args)}
}

// shardHash mixes a Key into a well-distributed 64-bit value for shard
// selection: FNV-1a over the callee, xor the args hash, then the shared
// splitmix64 finalisation (internal/hashmix) so map-adjacent keys land on
// distant shards.
func shardHash(k Key) uint64 {
	return hashmix.Mix64(hashmix.FNV64a(k.Callee) ^ k.ArgsHash)
}

// Typed errors returned by the blocking face.
var (
	// ErrBuildFailed marks an error caused by this caller's failed
	// resource build. errors.Is(err, ErrBuildFailed) matches, and the
	// underlying constructor error remains reachable via errors.Is/As.
	ErrBuildFailed = errors.New("multiplex: resource build failed")
	// ErrCacheClosed reports an Acquire call against a closed cache (its
	// container was torn down).
	ErrCacheClosed = errors.New("multiplex: cache closed")
)

// buildError wraps a constructor failure so callers can match both
// ErrBuildFailed and the original cause.
type buildError struct {
	key   Key
	cause error
}

// Error implements error.
func (e *buildError) Error() string {
	return fmt.Sprintf("multiplex: build %s: %v", e.key.Callee, e.cause)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *buildError) Unwrap() []error { return []error{ErrBuildFailed, e.cause} }

// Outcome classifies how one blocking-face creation was served.
type Outcome int

// Outcomes of Acquire.
const (
	// OutcomeMiss means this caller built the instance.
	OutcomeMiss Outcome = iota + 1
	// OutcomeHit means a ready instance was served.
	OutcomeHit
	// OutcomeCoalesced means the caller waited on another caller's build.
	OutcomeCoalesced
	// OutcomeError means the creation failed (build error, cache closed,
	// or context cancellation).
	OutcomeError
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Cached reports whether the outcome reused an instance another creation
// built, rather than building one.
func (o Outcome) Cached() bool {
	return o == OutcomeHit || o == OutcomeCoalesced
}

// BeginResult reports the cache state encountered by Begin.
type BeginResult int

// Begin outcomes.
const (
	// BeginHit means a ready instance was returned.
	BeginHit BeginResult = iota + 1
	// BeginMiss means the caller is now the builder and must call
	// Complete.
	BeginMiss
	// BeginPending means another caller is building; register interest
	// with Wait.
	BeginPending
)

// String implements fmt.Stringer.
func (r BeginResult) String() string {
	switch r {
	case BeginHit:
		return "hit"
	case BeginMiss:
		return "miss"
	case BeginPending:
		return "pending"
	default:
		return fmt.Sprintf("begin(%d)", int(r))
	}
}

// Stats summarises cache effectiveness.
type Stats struct {
	// Hits counts creations served from a ready instance.
	Hits uint64
	// Coalesced counts creations that waited on an in-flight build.
	Coalesced uint64
	// Misses counts actual builds started.
	Misses uint64
	// BuildFailures counts builds that finished with an error.
	BuildFailures uint64
	// Invalidations counts entries dropped by handler feedback.
	Invalidations uint64
	// LiveInstances is the number of ready instances held.
	LiveInstances int
	// BytesLive is the memory held by ready instances.
	BytesLive int64
	// BytesSaved is the duplicate memory avoided: the instance size for
	// each hit or coalesced creation.
	BytesSaved int64
	// Evictions counts instances dropped by the LRU capacity bound.
	Evictions uint64
	// Shards is the number of lock-striped shards.
	Shards int
	// MaxShardOccupancy is the largest ready-instance count held by any
	// one shard (a skew indicator: compare against LiveInstances/Shards).
	MaxShardOccupancy int
}

// Add folds another snapshot into s: counters and live gauges sum, shard
// gauges aggregate (Shards sums across caches, MaxShardOccupancy takes the
// max), so a platform can aggregate per-container caches into one view.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Coalesced += o.Coalesced
	s.Misses += o.Misses
	s.BuildFailures += o.BuildFailures
	s.Invalidations += o.Invalidations
	s.LiveInstances += o.LiveInstances
	s.BytesLive += o.BytesLive
	s.BytesSaved += o.BytesSaved
	s.Evictions += o.Evictions
	s.Shards += o.Shards
	if o.MaxShardOccupancy > s.MaxShardOccupancy {
		s.MaxShardOccupancy = o.MaxShardOccupancy
	}
}

// Config parameterises a Cache. The zero value is the paper's seed cache:
// unbounded, auto-sized shards.
type Config struct {
	// Shards is the number of lock stripes, rounded up to a power of two.
	// Zero picks an automatic size from GOMAXPROCS. When MaxEntries > 0
	// the count is clamped so every shard owns at least one slot.
	Shards int
	// MaxEntries bounds the ready instances held across all shards. The
	// capacity splits per shard (remainder slots distributed so the shard
	// caps sum to exactly MaxEntries) and each shard evicts its least-
	// recently-used ready instance on overflow. Because the bound is
	// enforced per shard, a heavily skewed key population can see
	// evictions while total occupancy is still below MaxEntries; with
	// auto-sized Shards the shard count shrinks until every shard owns at
	// least a few slots to keep that skew effect small. Zero or negative
	// means unbounded (the paper's container-scoped cache, whose lifetime
	// bounds it naturally).
	MaxEntries int
	// OnEvict is the entry-lifecycle closer hook: it runs (outside the
	// shard lock) for every instance that leaves the cache — LRU eviction,
	// Invalidate and Close — so evicted clients can release sockets or
	// return memory to a ledger.
	OnEvict func(Key, any, int64)
}

// Cache is one container's Resource Multiplexer.
//
// The zero value is not usable; create caches with NewWithConfig.
type Cache struct {
	cfg    Config
	shards []*shard
	mask   uint64
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewWithConfig creates an empty cache from cfg.
func NewWithConfig(cfg Config) *Cache {
	n := cfg.Shards
	auto := n <= 0
	if auto {
		// Auto: enough stripes that GOMAXPROCS goroutines rarely collide.
		n = 2 * runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
		if n > 256 {
			n = 256
		}
	}
	n = nextPow2(n)
	if cfg.MaxEntries > 0 {
		if auto {
			// Auto sizing also respects the capacity: fewer, deeper shards
			// beat many 1-slot shards, which thrash under key skew (two hot
			// keys colliding in a 1-slot shard evict each other forever).
			for n > 1 && cfg.MaxEntries/n < 4 {
				n >>= 1
			}
		}
		// Every shard must own at least one slot, or the capacity split
		// would round a shard's bound to zero and evict everything it
		// completes.
		for n > 1 && cfg.MaxEntries/n < 1 {
			n >>= 1
		}
	}
	c := &Cache{cfg: cfg, mask: uint64(n - 1)}
	// The capacity splits across shards with the remainder distributed one
	// slot at a time, so the shard caps sum to exactly MaxEntries.
	base, rem := 0, 0
	if cfg.MaxEntries > 0 {
		base, rem = cfg.MaxEntries/n, cfg.MaxEntries%n
	}
	c.shards = make([]*shard, n)
	for i := range c.shards {
		capacity := base
		if i < rem {
			capacity++
		}
		c.shards[i] = &shard{cache: c, cap: capacity, entries: make(map[Key]*entry)}
	}
	return c
}

// shardFor picks the shard owning key.
func (c *Cache) shardFor(key Key) *shard {
	return c.shards[shardHash(key)&c.mask]
}

// Begin looks up key. On BeginHit the ready instance is returned. On
// BeginMiss the caller becomes the builder and must finish with Complete.
// On BeginPending the caller should register a Wait callback.
//
// On a closed cache Begin reports BeginMiss without becoming a builder:
// the subsequent Complete is a no-op (releasing the instance through
// OnEvict), so sim callers terminate cleanly during teardown.
func (c *Cache) Begin(key Key) (BeginResult, any) {
	return c.shardFor(key).begin(key)
}

// Wait registers fn to run when the pending build for key finishes. fn
// receives the built instance, or nil if the build failed or the cache
// closed (the caller should then retry Begin). If the key is already ready
// or absent, fn runs immediately with the current instance (nil when
// absent).
func (c *Cache) Wait(key Key, fn func(any)) {
	c.shardFor(key).wait(key, fn)
}

// Complete publishes the built instance for key and notifies waiters.
// Waiters count toward BytesSaved: each avoided building a duplicate.
// Completing a key the cache no longer tracks (closed meanwhile) or one
// already ready releases the instance through OnEvict instead of storing
// it.
func (c *Cache) Complete(key Key, instance any, bytes int64) {
	c.shardFor(key).complete(key, instance, bytes, nil)
}

// Invalidate drops the ready entry for key — handler feedback for an
// instance that started erroring (the paper's multiplexer trusts instances
// forever; production clients go bad). The instance is released through
// OnEvict. Pending builds are untouched. It reports whether an entry was
// dropped.
func (c *Cache) Invalidate(key Key) bool {
	return c.shardFor(key).invalidate(key)
}

// Loan is a caller's hold on an instance Acquire returned. The zero Loan
// holds nothing (error outcomes, or a cache with no OnEvict hook to
// defer), and releasing it is a no-op. A Loan has one holder: copies
// share the hold, and Release is not safe for concurrent use.
type Loan struct{ rec *loans }

// Release ends the loan, firing the instance's OnEvict if it left the
// cache meanwhile and this was its last loan. Releasing twice is a no-op.
func (l *Loan) Release() {
	if rec := l.rec; rec != nil {
		l.rec = nil
		rec.release()
	}
}

// runBuild invokes a caller-supplied constructor for key. A panicking
// constructor fails the in-flight build first — waking coalesced waiters
// instead of leaving a pending entry that deadlocks every later caller —
// and then re-raises.
func runBuild(sh *shard, key Key, build func() (any, int64, error)) (v any, bytes int64, err error) {
	returned := false
	defer func() {
		if !returned {
			sh.fail(key)
		}
	}()
	v, bytes, err = build()
	returned = true
	return v, bytes, err
}

// Acquire is the blocking face used by the live platform: it returns the
// cached instance for key, or runs build exactly once per miss while
// concurrent callers wait (singleflight). The Outcome classifies how the
// creation was served. A failed build wakes the callers coalesced on it,
// and the first of them to retry builds again. Errors are typed:
// ErrBuildFailed (with the constructor's error in the chain),
// ErrCacheClosed, or the context's error when ctx ends while coalesced on
// another caller's build.
//
// The returned Loan marks the caller's use of the instance: until it is
// released, any eviction of the instance (LRU overflow, Invalidate,
// Close) defers the OnEvict hook, so a cached client is never closed out
// from under a caller mid-use. It must be released exactly once — a
// forgotten release pins an evicted instance's OnEvict forever. A hit
// allocates nothing.
func (c *Cache) Acquire(ctx context.Context, key Key, build func() (any, int64, error)) (any, Outcome, Loan, error) {
	sh := c.shardFor(key)
	for {
		found, closed := sh.beginBlocking(key)
		if closed {
			return nil, OutcomeError, Loan{}, fmt.Errorf("multiplex: get %s: %w", key.Callee, ErrCacheClosed)
		}
		switch found.res {
		case BeginHit:
			return found.inst, OutcomeHit, Loan{rec: found.loan}, nil
		case BeginMiss:
			v, bytes, err := runBuild(sh, key, build)
			if err != nil {
				sh.fail(key)
				return nil, OutcomeError, Loan{}, &buildError{key: key, cause: err}
			}
			// Take the loan before publishing: once complete runs the
			// instance is evictable (and the duplicate/orphan paths inside
			// complete release through OnEvict), but this caller is about
			// to return it.
			var lent *loans
			if sh.tracksLoans() {
				lent = &loans{sh: sh}
				lent.count.Store(1)
			}
			sh.complete(key, v, bytes, lent)
			return v, OutcomeMiss, Loan{rec: lent}, nil
		default: // BeginPending: coalesce onto the in-flight build.
			select {
			case <-found.done:
			case <-ctx.Done():
				return nil, OutcomeError, Loan{}, fmt.Errorf("multiplex: wait for %s: %w", key.Callee, ctx.Err())
			}
			if v, loan, ok := sh.readyValue(key); ok {
				return v, OutcomeCoalesced, Loan{rec: loan}, nil
			}
			// The build failed or the cache closed; loop — this caller
			// becomes the builder or reports the closed cache.
		}
	}
}

// Stats returns an aggregated snapshot of the cache statistics.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s := sh.stats
		s.LiveInstances = sh.ready
		s.BytesLive = sh.bytesLive
		s.MaxShardOccupancy = sh.ready
		sh.mu.Unlock()
		st.Add(s)
	}
	st.Shards = len(c.shards)
	return st
}

// Close drops every entry — releasing ready instances through OnEvict and
// waking pending waiters with nil, so coalesced invocations are never
// stranded by a container teardown — and reports the bytes that were live
// (so the teardown can return them to the node's memory ledger). After
// Close, Acquire reports ErrCacheClosed and the event-driven face stops
// storing instances. Close is idempotent.
func (c *Cache) Close() int64 {
	var freed int64
	for _, sh := range c.shards {
		freed += sh.close()
	}
	return freed
}
