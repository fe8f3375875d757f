// Package multiplex implements the paper's Resource Multiplexer (§III-D):
// a per-container resource-args-result cache that intercepts resource
// creation calls (e.g. building an S3 client), keys them by the callee and
// a hash of the creation arguments, and serves repeated creations from the
// cache instead of constructing duplicate instances.
//
// The cache is concurrent state sized for the live platform:
//
//   - One mutex: a container's cache is one map and one LRU list under a
//     single lock, as in the paper. Builds run outside it, so the lock is
//     held only for a lookup or a publish; a container's invocations hit a
//     handful of keys, so striping would buy nothing.
//   - Bounded capacity: the LRU list bounds the ready instances
//     (Config.MaxEntries), evicting the least recently used one exactly;
//     every instance leaving the cache passes through the OnEvict closer
//     hook so evicted clients can release sockets. Without a bound the
//     container's keep-alive is what limits an entry's life, as in the
//     paper.
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
}

// Add folds another snapshot into s: counters and live gauges sum, so a
// platform can aggregate per-container caches into one view.
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
}

// Config parameterises a Cache. The zero value is the paper's seed cache:
// unbounded.
type Config struct {
	// MaxEntries bounds the ready instances the cache holds: a publish
	// that takes the count past it evicts the least-recently-used ready
	// instance. Zero or negative means unbounded (the paper's
	// container-scoped cache, whose lifetime bounds it naturally).
	MaxEntries int
	// OnEvict is the entry-lifecycle closer hook: it runs (outside the
	// cache lock) for every instance that leaves the cache — LRU eviction,
	// Invalidate and Close — so evicted clients can release sockets or
	// return memory to a ledger.
	OnEvict func(Key, any, int64)
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
func runBuild(c *Cache, key Key, build func() (any, int64, error)) (v any, bytes int64, err error) {
	returned := false
	defer func() {
		if !returned {
			c.fail(key)
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
	for {
		found, closed := c.beginBlocking(key)
		if closed {
			return nil, OutcomeError, Loan{}, fmt.Errorf("multiplex: get %s: %w", key.Callee, ErrCacheClosed)
		}
		switch found.res {
		case BeginHit:
			return found.inst, OutcomeHit, Loan{rec: found.loan}, nil
		case BeginMiss:
			v, bytes, err := runBuild(c, key, build)
			if err != nil {
				c.fail(key)
				return nil, OutcomeError, Loan{}, &buildError{key: key, cause: err}
			}
			// Take the loan before publishing: once complete runs the
			// instance is evictable (and the duplicate/orphan paths inside
			// complete release through OnEvict), but this caller is about
			// to return it.
			var lent *loans
			if c.tracksLoans() {
				lent = &loans{c: c}
				lent.count.Store(1)
			}
			c.complete(key, v, bytes, lent)
			return v, OutcomeMiss, Loan{rec: lent}, nil
		default: // BeginPending: coalesce onto the in-flight build.
			select {
			case <-found.done:
			case <-ctx.Done():
				return nil, OutcomeError, Loan{}, fmt.Errorf("multiplex: wait for %s: %w", key.Callee, ctx.Err())
			}
			if v, loan, ok := c.readyValue(key); ok {
				return v, OutcomeCoalesced, Loan{rec: loan}, nil
			}
			// The build failed or the cache closed; loop — this caller
			// becomes the builder or reports the closed cache.
		}
	}
}
