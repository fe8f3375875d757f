package multiplex

import (
	"sync"
	"sync/atomic"
	"time"
)

type entryState int

const (
	statePending entryState = iota + 1
	stateReady
	stateNegative
)

// entry is one key's cache slot, moving pending → ready (→ refreshing
// in place) or pending → negative as builds succeed or fail. Ready
// entries are linked into the shard's LRU list.
type entry struct {
	key      Key
	state    entryState
	instance any
	bytes    int64
	waiters  []func(any)   // event-driven waiters
	done     chan struct{} // blocking waiters
	// refreshing marks a ready entry whose background rebuild is in
	// flight (stale-while-revalidate); it stays servable and is never
	// dropped — not by LRU overflow, not by TTL expiry, not by
	// Invalidate — until the refresh settles. Dropping it would strand
	// the refresher's Complete/Fail on a different entry for the same key
	// (cross-talk between two concurrent builds).
	refreshing bool
	// doomed marks a refreshing entry that was invalidated mid-refresh:
	// a completing refresh replaces the condemned instance as usual, a
	// failing refresh drops the entry instead of keeping it.
	doomed bool
	// expireAt is the clock reading at which the instance expires
	// (0 = immortal).
	expireAt time.Duration
	// fails counts consecutive build failures; the negative backoff
	// doubles with each one.
	fails int
	// retryAt is the clock reading at which a negative entry allows the
	// next build probe.
	retryAt time.Duration
	// lastErr is the most recent build error (negative entries serve it).
	lastErr error
	// loans counts the Acquire loans outstanding on instance (nil until
	// the first one). A refresh replacement starts a new record for the
	// new instance; the old one leaves with the old instance's eviction.
	loans *loans
	// prev/next link ready entries in the shard LRU (head = most recent).
	prev, next *entry
}

// evicted is one instance leaving the cache, queued for the OnEvict hook
// which must run outside the shard lock.
type evicted struct {
	key      Key
	instance any
	bytes    int64
	// loans is the instance's loan record (nil if it was never lent).
	loans *loans
}

// loans refcounts one published instance lent to blocking callers
// (Acquire). The ready entry serving the instance owns the record, so a
// hit registers its loan with one increment under the lookup it already
// does; an eviction carries the record out of the cache with the
// instance. While count > 0 the instance's eviction records park in
// pending instead of reaching OnEvict; the release that takes count to
// zero fires them.
type loans struct {
	sh *shard
	// count rises only under sh.mu (a hit on the owning entry, or the
	// miss-path builder before it publishes) and falls without it.
	count   atomic.Int64
	pending []evicted // guarded by sh.mu
}

// release returns one loan. Only the release that empties the record
// takes the shard lock: parked evictions can exist at no other moment.
func (l *loans) release() {
	if l.count.Add(-1) > 0 {
		return
	}
	s := l.sh
	var pending []evicted
	s.mu.Lock()
	// A hit may have lent the instance out again since the decrement; its
	// own last release then finds whatever parks meanwhile.
	if l.count.Load() == 0 {
		pending, l.pending = l.pending, nil
	}
	s.mu.Unlock()
	for _, ev := range pending {
		s.cache.cfg.OnEvict(ev.key, ev.instance, ev.bytes)
	}
}

// shard is one lock stripe: a map plus an intrusive LRU of ready entries.
type shard struct {
	cache *Cache
	// cap bounds this shard's ready entries (0 = unbounded).
	cap int

	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	ready      int
	negCount   int
	bytesLive  int64
	stats      Stats // scalar counters only; gauges derive from fields above
	closed     bool
}

// --- LRU list (callers hold s.mu) ---

func (s *shard) lruPushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) lruTouch(e *entry) {
	if s.head == e {
		return
	}
	s.lruRemove(e)
	s.lruPushFront(e)
}

// --- lifecycle helpers (callers hold s.mu) ---

// dropReadyLocked unlinks a ready entry and returns its eviction record.
func (s *shard) dropReadyLocked(e *entry) evicted {
	s.lruRemove(e)
	delete(s.entries, e.key)
	s.ready--
	s.bytesLive -= e.bytes
	return evicted{key: e.key, instance: e.instance, bytes: e.bytes, loans: e.loans}
}

// evictOverflowLocked drops least-recently-used ready entries while the
// shard exceeds its capacity, skipping entries with a refresh in flight
// (they are demonstrably hot and their Complete must find them).
func (s *shard) evictOverflowLocked(out []evicted) []evicted {
	for s.cap > 0 && s.ready > s.cap {
		victim := s.tail
		for victim != nil && victim.refreshing {
			victim = victim.prev
		}
		if victim == nil {
			return out
		}
		out = append(out, s.dropReadyLocked(victim))
		s.stats.Evictions++
	}
	return out
}

func (e *entry) expired(now time.Duration) bool {
	return e.expireAt > 0 && now >= e.expireAt
}

func (s *shard) inRefreshWindow(e *entry, now time.Duration) bool {
	w := s.cache.cfg.RefreshWindow
	return w > 0 && e.expireAt > 0 && now >= e.expireAt-w
}

// fire invokes the OnEvict closer hook for every collected instance,
// except those still lent out by Acquire: their records are parked and
// fire when the last borrower releases. Callers must have released s.mu.
func (s *shard) fire(evs []evicted) {
	hook := s.cache.cfg.OnEvict
	if hook == nil {
		return
	}
	for _, ev := range evs {
		if ev.loans != nil && s.parkWhileLent(ev) {
			continue
		}
		hook(ev.key, ev.instance, ev.bytes)
	}
}

// parkWhileLent parks ev on its loan record if the instance is still lent
// out, reporting whether the OnEvict hook must wait for the last release.
// The record is out of the cache by now, so its count can only fall.
func (s *shard) parkWhileLent(ev evicted) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.loans.count.Load() <= 0 {
		return false
	}
	ev.loans.pending = append(ev.loans.pending, ev)
	return true
}

// tracksLoans reports whether loan bookkeeping buys anything: without an
// OnEvict hook there is nothing to defer.
func (s *shard) tracksLoans() bool { return s.cache.cfg.OnEvict != nil }

// lendLocked registers one loan of e's instance (nil when loans are not
// tracked). Callers hold s.mu.
func (s *shard) lendLocked(e *entry) *loans {
	if !s.tracksLoans() {
		return nil
	}
	if e.loans == nil {
		e.loans = &loans{sh: s}
	}
	e.loans.count.Add(1)
	return e.loans
}

// lookup is what one begin found: the result, the instance and the loan
// registered on it (hit/stale, blocking face), the done channel (pending)
// and the last build error (negative).
type lookup struct {
	res     BeginResult
	inst    any
	loan    *loans
	done    chan struct{}
	lastErr error
}

// beginLocked is the shared lookup of both faces. Callers hold s.mu. It
// returns what it found and any evictions to fire. lend registers a loan
// on any returned instance (the blocking face's Acquire; the event-driven
// face never borrows).
func (s *shard) beginLocked(key Key, lend bool) (lookup, []evicted) {
	now := s.cache.cfg.Now()
	e, ok := s.entries[key]
	if ok && e.state == stateReady && e.expired(now) && !e.refreshing {
		// Lazy TTL expiry: the instance is released through OnEvict and
		// this caller rebuilds. An expired entry whose refresh is in
		// flight is NOT dropped — its refresher's Complete/Fail must find
		// it — so it falls through and keeps serving stale below.
		ev := s.dropReadyLocked(e)
		s.stats.Expired++
		s.stats.Misses++
		s.entries[key] = &entry{key: key, state: statePending, done: make(chan struct{})}
		return lookup{res: BeginMiss}, []evicted{ev}
	}
	if !ok {
		s.stats.Misses++
		s.entries[key] = &entry{key: key, state: statePending, done: make(chan struct{})}
		return lookup{res: BeginMiss}, nil
	}
	switch e.state {
	case stateReady:
		found := lookup{res: BeginHit, inst: e.instance}
		if !e.refreshing && s.inRefreshWindow(e, now) {
			e.refreshing = true
			s.stats.StaleHits++
			s.stats.Refreshes++
			found.res = BeginStale
		} else {
			s.stats.Hits++
		}
		s.stats.BytesSaved += e.bytes
		s.lruTouch(e)
		if lend {
			found.loan = s.lendLocked(e)
		}
		return found, nil
	case stateNegative:
		if now >= e.retryAt {
			// Backoff elapsed: this caller probes. The consecutive-failure
			// count survives so another failure doubles the backoff again.
			e.state = statePending
			e.done = make(chan struct{})
			e.waiters = nil
			s.negCount--
			s.stats.Misses++
			return lookup{res: BeginMiss}, nil
		}
		s.stats.NegativeHits++
		return lookup{res: BeginNegative, lastErr: e.lastErr}, nil
	default: // statePending
		s.stats.Coalesced++
		return lookup{res: BeginPending, done: e.done}, nil
	}
}

// begin is the event-driven face's lookup.
func (s *shard) begin(key Key) (BeginResult, any) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return BeginMiss, nil
	}
	found, evs := s.beginLocked(key, false)
	s.mu.Unlock()
	s.fire(evs)
	return found.res, found.inst
}

// beginBlocking is the blocking face's lookup; closed reports a closed
// cache (Acquire turns it into ErrCacheClosed). lend registers a loan on
// any instance returned.
func (s *shard) beginBlocking(key Key, lend bool) (found lookup, closed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return lookup{}, true
	}
	found, evs := s.beginLocked(key, lend)
	s.mu.Unlock()
	s.fire(evs)
	return found, false
}

// readyValue reports the instance for key if it is ready and unexpired —
// the recheck a coalesced waiter performs after the build settles. lend
// registers a loan on the returned instance.
func (s *shard) readyValue(key Key, lend bool) (any, *loans, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.state != stateReady || (e.expired(s.cache.cfg.Now()) && !e.refreshing) {
		return nil, nil, false
	}
	var loan *loans
	if lend {
		loan = s.lendLocked(e)
	}
	return e.instance, loan, true
}

// wait registers an event-driven waiter (see Cache.Wait).
func (s *shard) wait(key Key, fn func(any)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fn(nil)
		return
	}
	e, ok := s.entries[key]
	if !ok || e.state == stateNegative {
		s.mu.Unlock()
		fn(nil)
		return
	}
	if e.state == stateReady {
		inst := e.instance
		s.mu.Unlock()
		fn(inst)
		return
	}
	e.waiters = append(e.waiters, fn)
	s.mu.Unlock()
}

// complete publishes a built instance (see Cache.Complete). lent is the
// loan its builder already holds on it (Acquire's miss path; nil
// otherwise): it becomes the published entry's record, or leaves with the
// instance when there is nowhere to store it — either way the builder's
// release is what lets the instance's OnEvict run.
func (s *shard) complete(key Key, instance any, bytes int64, lent *loans) {
	now := s.cache.cfg.Now()
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok {
		// Nowhere to store it: release the orphaned instance so its
		// sockets do not leak past the container teardown.
		s.mu.Unlock()
		s.fire([]evicted{{key: key, instance: instance, bytes: bytes, loans: lent}})
		return
	}
	var evs []evicted
	var waiters []func(any)
	switch e.state {
	case statePending:
		e.state = stateReady
		e.instance = instance
		e.bytes = bytes
		e.loans = lent
		e.fails = 0
		e.lastErr = nil
		if ttl := s.cache.cfg.TTL; ttl > 0 {
			e.expireAt = now + ttl
		}
		waiters = e.waiters
		e.waiters = nil
		close(e.done)
		e.done = nil
		s.ready++
		s.bytesLive += bytes
		s.stats.BytesSaved += bytes * int64(len(waiters))
		s.lruPushFront(e)
		evs = s.evictOverflowLocked(evs)
	case stateReady:
		if e.refreshing {
			// Refresh replacement: the stale instance leaves the cache. An
			// invalidation that condemned the entry mid-refresh is satisfied
			// too — the condemned instance is exactly what leaves.
			evs = append(evs, evicted{key: key, instance: e.instance, bytes: e.bytes, loans: e.loans})
			s.bytesLive += bytes - e.bytes
			e.instance = instance
			e.bytes = bytes
			e.loans = lent
			e.refreshing = false
			e.doomed = false
			if ttl := s.cache.cfg.TTL; ttl > 0 {
				e.expireAt = now + ttl
			}
			s.lruTouch(e)
		} else {
			// Duplicate publish: the first instance wins, the duplicate is
			// released.
			evs = append(evs, evicted{key: key, instance: instance, bytes: bytes, loans: lent})
		}
	default: // stateNegative: a stray publish after a Fail settled the key
		evs = append(evs, evicted{key: key, instance: instance, bytes: bytes, loans: lent})
	}
	s.mu.Unlock()
	s.fire(evs)
	for _, w := range waiters {
		w(instance)
	}
}

// fail settles a failed build (see Cache.Fail / Cache.FailErr).
func (s *shard) fail(key Key, cause error) {
	now := s.cache.cfg.Now()
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok {
		s.mu.Unlock()
		return
	}
	var waiters []func(any)
	var evs []evicted
	switch e.state {
	case statePending:
		s.stats.BuildFailures++
		waiters = e.waiters
		e.waiters = nil
		close(e.done)
		e.done = nil
		if base := s.cache.cfg.NegativeBackoff; base > 0 {
			e.state = stateNegative
			e.fails++
			backoff := base << uint(e.fails-1)
			if max := s.cache.cfg.NegativeBackoffMax; backoff > max || backoff <= 0 {
				backoff = max
			}
			e.retryAt = now + backoff
			e.lastErr = cause
			s.negCount++
			s.boundNegativesLocked(e)
		} else {
			delete(s.entries, key)
		}
	case stateReady:
		if e.refreshing {
			e.refreshing = false
			s.stats.BuildFailures++
			if e.doomed {
				// Invalidated mid-refresh: the failed refresh cannot replace
				// the condemned instance, so the entry leaves now instead of
				// lingering until hard expiry.
				evs = append(evs, s.dropReadyLocked(e))
			}
			// Otherwise a failed refresh keeps the stale instance until
			// hard expiry; the next stale hit may try again.
		}
		// Fail on a plain ready key must not evict it (seed semantics).
	default: // stateNegative: already settled
	}
	s.mu.Unlock()
	s.fire(evs)
	for _, w := range waiters {
		w(nil)
	}
}

// boundNegativesLocked keeps the negative-entry population finite: failing
// keys are remembered, but a workload cycling through endless distinct
// failing keys must not grow the map without bound. The entry closest to
// its retry time (other than keep) is dropped first.
func (s *shard) boundNegativesLocked(keep *entry) {
	maxNeg := 64
	if s.cap > maxNeg {
		maxNeg = s.cap
	}
	if s.negCount <= maxNeg {
		return
	}
	var victim *entry
	for _, e := range s.entries {
		if e.state != stateNegative || e == keep {
			continue
		}
		if victim == nil || e.retryAt < victim.retryAt {
			victim = e
		}
	}
	if victim != nil {
		delete(s.entries, victim.key)
		s.negCount--
	}
}

// invalidate drops a ready or negative entry (see Cache.Invalidate).
func (s *shard) invalidate(key Key) bool {
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok || e.state == statePending {
		s.mu.Unlock()
		return false
	}
	var evs []evicted
	switch e.state {
	case stateReady:
		if e.refreshing {
			// Never drop an entry whose refresh is in flight — the
			// refresher's Complete/Fail must find it. Condemn it instead:
			// a completing refresh replaces the instance anyway, a failing
			// refresh drops the entry. Until then the condemned instance
			// keeps being served, as stale-while-revalidate already does.
			e.doomed = true
		} else {
			evs = append(evs, s.dropReadyLocked(e))
		}
	default: // stateNegative
		delete(s.entries, key)
		s.negCount--
	}
	s.stats.Invalidations++
	s.mu.Unlock()
	s.fire(evs)
	return true
}

// close tears the shard down (see Cache.Close).
func (s *shard) close() int64 {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	s.closed = true
	freed := s.bytesLive
	var evs []evicted
	var waiters []func(any)
	for k, e := range s.entries {
		switch e.state {
		case statePending:
			waiters = append(waiters, e.waiters...)
			close(e.done)
		case stateReady:
			evs = append(evs, evicted{key: k, instance: e.instance, bytes: e.bytes, loans: e.loans})
		}
		delete(s.entries, k)
	}
	s.head, s.tail = nil, nil
	s.ready = 0
	s.negCount = 0
	s.bytesLive = 0
	s.mu.Unlock()
	s.fire(evs)
	for _, w := range waiters {
		w(nil)
	}
	return freed
}
