package multiplex

import (
	"sync"
	"sync/atomic"
)

// entry is one key's cache slot, moving from pending to ready when its
// build completes. Ready entries are linked into the shard's LRU list.
type entry struct {
	key      Key
	ready    bool
	instance any
	bytes    int64
	waiters  []func(any)   // event-driven waiters
	done     chan struct{} // blocking waiters
	// loans counts the Acquire loans outstanding on instance (nil until
	// the first one).
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
// shard exceeds its capacity. The entry just published sits at the head,
// and a shard's capacity is at least one, so it is never the victim.
func (s *shard) evictOverflowLocked(out []evicted) []evicted {
	for s.cap > 0 && s.ready > s.cap {
		out = append(out, s.dropReadyLocked(s.tail))
		s.stats.Evictions++
	}
	return out
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

// beginLocked is the shared lookup of both faces. Callers hold s.mu. A
// miss installs the pending entry this caller now builds.
func (s *shard) beginLocked(key Key) (BeginResult, *entry) {
	e, ok := s.entries[key]
	switch {
	case !ok:
		s.stats.Misses++
		e = &entry{key: key, done: make(chan struct{})}
		s.entries[key] = e
		return BeginMiss, e
	case !e.ready:
		s.stats.Coalesced++
		return BeginPending, e
	default:
		s.stats.Hits++
		s.stats.BytesSaved += e.bytes
		s.lruTouch(e)
		return BeginHit, e
	}
}

// begin is the event-driven face's lookup.
func (s *shard) begin(key Key) (BeginResult, any) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return BeginMiss, nil
	}
	res, e := s.beginLocked(key)
	var inst any
	if res == BeginHit {
		inst = e.instance
	}
	s.mu.Unlock()
	return res, inst
}

// lookup is what one blocking-face begin found: the result, the instance
// and the loan registered on it (hit), or the done channel (pending).
type lookup struct {
	res  BeginResult
	inst any
	loan *loans
	done chan struct{}
}

// beginBlocking is the blocking face's lookup; closed reports a closed
// cache (Acquire turns it into ErrCacheClosed). A hit lends the instance.
func (s *shard) beginBlocking(key Key) (found lookup, closed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return lookup{}, true
	}
	res, e := s.beginLocked(key)
	found.res = res
	switch res {
	case BeginHit:
		found.inst, found.loan = e.instance, s.lendLocked(e)
	case BeginPending:
		found.done = e.done
	}
	s.mu.Unlock()
	return found, false
}

// readyValue reports and lends the instance for key if it is ready — the
// recheck a coalesced waiter performs after the build settles.
func (s *shard) readyValue(key Key) (any, *loans, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || !e.ready {
		return nil, nil, false
	}
	return e.instance, s.lendLocked(e), true
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
	if !ok {
		s.mu.Unlock()
		fn(nil)
		return
	}
	if e.ready {
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
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok || e.ready {
		// Nowhere to store it (the cache closed), or a duplicate publish
		// (the first instance wins): release it so its sockets do not leak.
		s.mu.Unlock()
		s.fire([]evicted{{key: key, instance: instance, bytes: bytes, loans: lent}})
		return
	}
	e.ready = true
	e.instance = instance
	e.bytes = bytes
	e.loans = lent
	waiters := e.waiters
	e.waiters = nil
	close(e.done)
	e.done = nil
	s.ready++
	s.bytesLive += bytes
	s.stats.BytesSaved += bytes * int64(len(waiters))
	s.lruPushFront(e)
	evs := s.evictOverflowLocked(nil)
	s.mu.Unlock()
	s.fire(evs)
	for _, w := range waiters {
		w(instance)
	}
}

// fail settles a failed build: the pending entry is dropped so the next
// lookup builds again, and its waiters wake with nil. Failing a ready or
// unknown key is a no-op.
func (s *shard) fail(key Key) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok || e.ready {
		s.mu.Unlock()
		return
	}
	s.stats.BuildFailures++
	delete(s.entries, key)
	waiters := e.waiters
	close(e.done)
	s.mu.Unlock()
	for _, w := range waiters {
		w(nil)
	}
}

// invalidate drops a ready entry (see Cache.Invalidate).
func (s *shard) invalidate(key Key) bool {
	s.mu.Lock()
	e, ok := s.entries[key]
	if s.closed || !ok || !e.ready {
		s.mu.Unlock()
		return false
	}
	ev := s.dropReadyLocked(e)
	s.stats.Invalidations++
	s.mu.Unlock()
	s.fire([]evicted{ev})
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
		if e.ready {
			evs = append(evs, evicted{key: k, instance: e.instance, bytes: e.bytes, loans: e.loans})
		} else {
			waiters = append(waiters, e.waiters...)
			close(e.done)
		}
		delete(s.entries, k)
	}
	s.head, s.tail = nil, nil
	s.ready = 0
	s.bytesLive = 0
	s.mu.Unlock()
	s.fire(evs)
	for _, w := range waiters {
		w(nil)
	}
	return freed
}
