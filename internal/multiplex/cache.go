package multiplex

import (
	"sync"
	"sync/atomic"
)

// entry is one key's cache slot, moving from pending to ready when its
// build completes. Ready entries are linked into the cache's LRU list.
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
	// prev/next link ready entries in the LRU (head = most recent).
	prev, next *entry
}

// evicted is one instance leaving the cache, queued for the OnEvict hook
// which must run outside the cache lock.
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
	c *Cache
	// count rises only under c.mu (a hit on the owning entry, or the
	// miss-path builder before it publishes) and falls without it.
	count   atomic.Int64
	pending []evicted // guarded by c.mu
}

// release returns one loan. Only the release that empties the record
// takes the cache lock: parked evictions can exist at no other moment.
func (l *loans) release() {
	if l.count.Add(-1) > 0 {
		return
	}
	c := l.c
	var pending []evicted
	c.mu.Lock()
	// A hit may have lent the instance out again since the decrement; its
	// own last release then finds whatever parks meanwhile.
	if l.count.Load() == 0 {
		pending, l.pending = l.pending, nil
	}
	c.mu.Unlock()
	for _, ev := range pending {
		c.cfg.OnEvict(ev.key, ev.instance, ev.bytes)
	}
}

// Cache is one container's Resource Multiplexer: one mutex over a map of
// entries and an intrusive LRU of the ready ones.
//
// The zero value is not usable; create caches with NewWithConfig.
type Cache struct {
	cfg Config

	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	ready      int
	bytesLive  int64
	stats      Stats // scalar counters only; gauges derive from fields above
	closed     bool
}

// NewWithConfig creates an empty cache from cfg.
func NewWithConfig(cfg Config) *Cache {
	return &Cache{cfg: cfg, entries: make(map[Key]*entry)}
}

// --- LRU list (callers hold c.mu) ---

func (c *Cache) lruPushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) lruTouch(e *entry) {
	if c.head == e {
		return
	}
	c.lruRemove(e)
	c.lruPushFront(e)
}

// --- lifecycle helpers (callers hold c.mu) ---

// dropReadyLocked unlinks a ready entry and returns its eviction record.
func (c *Cache) dropReadyLocked(e *entry) evicted {
	c.lruRemove(e)
	delete(c.entries, e.key)
	c.ready--
	c.bytesLive -= e.bytes
	return evicted{key: e.key, instance: e.instance, bytes: e.bytes, loans: e.loans}
}

// evictOverflowLocked drops least-recently-used ready entries while the
// cache holds more than MaxEntries. The entry just published sits at the
// head, and a bound is at least one, so it is never the victim.
func (c *Cache) evictOverflowLocked(out []evicted) []evicted {
	for c.cfg.MaxEntries > 0 && c.ready > c.cfg.MaxEntries {
		out = append(out, c.dropReadyLocked(c.tail))
		c.stats.Evictions++
	}
	return out
}

// fire invokes the OnEvict closer hook for every collected instance,
// except those still lent out by Acquire: their records are parked and
// fire when the last borrower releases. Callers must have released c.mu.
func (c *Cache) fire(evs []evicted) {
	hook := c.cfg.OnEvict
	if hook == nil {
		return
	}
	for _, ev := range evs {
		if ev.loans != nil && c.parkWhileLent(ev) {
			continue
		}
		hook(ev.key, ev.instance, ev.bytes)
	}
}

// parkWhileLent parks ev on its loan record if the instance is still lent
// out, reporting whether the OnEvict hook must wait for the last release.
// The record is out of the cache by now, so its count can only fall.
func (c *Cache) parkWhileLent(ev evicted) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.loans.count.Load() <= 0 {
		return false
	}
	ev.loans.pending = append(ev.loans.pending, ev)
	return true
}

// tracksLoans reports whether loan bookkeeping buys anything: without an
// OnEvict hook there is nothing to defer.
func (c *Cache) tracksLoans() bool { return c.cfg.OnEvict != nil }

// lendLocked registers one loan of e's instance (nil when loans are not
// tracked). Callers hold c.mu.
func (c *Cache) lendLocked(e *entry) *loans {
	if !c.tracksLoans() {
		return nil
	}
	if e.loans == nil {
		e.loans = &loans{c: c}
	}
	e.loans.count.Add(1)
	return e.loans
}

// beginLocked is the shared lookup of both faces. Callers hold c.mu. A
// miss installs the pending entry this caller now builds.
func (c *Cache) beginLocked(key Key) (BeginResult, *entry) {
	e, ok := c.entries[key]
	switch {
	case !ok:
		c.stats.Misses++
		e = &entry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		return BeginMiss, e
	case !e.ready:
		c.stats.Coalesced++
		return BeginPending, e
	default:
		c.stats.Hits++
		c.stats.BytesSaved += e.bytes
		c.lruTouch(e)
		return BeginHit, e
	}
}

// Begin looks up key. On BeginHit the ready instance is returned. On
// BeginMiss the caller becomes the builder and must finish with Complete.
// On BeginPending the caller should register a Wait callback.
//
// On a closed cache Begin reports BeginMiss without becoming a builder:
// the subsequent Complete is a no-op (releasing the instance through
// OnEvict), so sim callers terminate cleanly during teardown.
func (c *Cache) Begin(key Key) (BeginResult, any) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return BeginMiss, nil
	}
	res, e := c.beginLocked(key)
	var inst any
	if res == BeginHit {
		inst = e.instance
	}
	c.mu.Unlock()
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
func (c *Cache) beginBlocking(key Key) (found lookup, closed bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return lookup{}, true
	}
	res, e := c.beginLocked(key)
	found.res = res
	switch res {
	case BeginHit:
		found.inst, found.loan = e.instance, c.lendLocked(e)
	case BeginPending:
		found.done = e.done
	}
	c.mu.Unlock()
	return found, false
}

// readyValue reports and lends the instance for key if it is ready — the
// recheck a coalesced waiter performs after the build settles.
func (c *Cache) readyValue(key Key) (any, *loans, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.ready {
		return nil, nil, false
	}
	return e.instance, c.lendLocked(e), true
}

// Wait registers fn to run when the pending build for key finishes. fn
// receives the built instance, or nil if the build failed or the cache
// closed (the caller should then retry Begin). If the key is already ready
// or absent, fn runs immediately with the current instance (nil when
// absent).
func (c *Cache) Wait(key Key, fn func(any)) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fn(nil)
		return
	}
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		fn(nil)
		return
	}
	if e.ready {
		inst := e.instance
		c.mu.Unlock()
		fn(inst)
		return
	}
	e.waiters = append(e.waiters, fn)
	c.mu.Unlock()
}

// Complete publishes the built instance for key and notifies waiters.
// Waiters count toward BytesSaved: each avoided building a duplicate.
// Completing a key the cache no longer tracks (closed meanwhile) or one
// already ready releases the instance through OnEvict instead of storing
// it.
func (c *Cache) Complete(key Key, instance any, bytes int64) {
	c.complete(key, instance, bytes, nil)
}

// complete publishes a built instance (see Complete). lent is the loan its
// builder already holds on it (Acquire's miss path; nil otherwise): it
// becomes the published entry's record, or leaves with the instance when
// there is nowhere to store it — either way the builder's release is what
// lets the instance's OnEvict run.
func (c *Cache) complete(key Key, instance any, bytes int64, lent *loans) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if c.closed || !ok || e.ready {
		// Nowhere to store it (the cache closed), or a duplicate publish
		// (the first instance wins): release it so its sockets do not leak.
		c.mu.Unlock()
		c.fire([]evicted{{key: key, instance: instance, bytes: bytes, loans: lent}})
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
	c.ready++
	c.bytesLive += bytes
	c.stats.BytesSaved += bytes * int64(len(waiters))
	c.lruPushFront(e)
	evs := c.evictOverflowLocked(nil)
	c.mu.Unlock()
	c.fire(evs)
	for _, w := range waiters {
		w(instance)
	}
}

// fail settles a failed build: the pending entry is dropped so the next
// lookup builds again, and its waiters wake with nil. Failing a ready or
// unknown key is a no-op.
func (c *Cache) fail(key Key) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if c.closed || !ok || e.ready {
		c.mu.Unlock()
		return
	}
	c.stats.BuildFailures++
	delete(c.entries, key)
	waiters := e.waiters
	close(e.done)
	c.mu.Unlock()
	for _, w := range waiters {
		w(nil)
	}
}

// Invalidate drops the ready entry for key — handler feedback for an
// instance that started erroring (the paper's multiplexer trusts instances
// forever; production clients go bad). The instance is released through
// OnEvict. Pending builds are untouched. It reports whether an entry was
// dropped.
func (c *Cache) Invalidate(key Key) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	if c.closed || !ok || !e.ready {
		c.mu.Unlock()
		return false
	}
	ev := c.dropReadyLocked(e)
	c.stats.Invalidations++
	c.mu.Unlock()
	c.fire([]evicted{ev})
	return true
}

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.LiveInstances = c.ready
	st.BytesLive = c.bytesLive
	return st
}

// Close drops every entry — releasing ready instances through OnEvict and
// waking pending waiters with nil, so coalesced invocations are never
// stranded by a container teardown — and reports the bytes that were live
// (so the teardown can return them to the node's memory ledger). After
// Close, Acquire reports ErrCacheClosed and the event-driven face stops
// storing instances. Close is idempotent.
func (c *Cache) Close() int64 {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	c.closed = true
	freed := c.bytesLive
	var evs []evicted
	var waiters []func(any)
	for k, e := range c.entries {
		if e.ready {
			evs = append(evs, evicted{key: k, instance: e.instance, bytes: e.bytes, loans: e.loans})
		} else {
			waiters = append(waiters, e.waiters...)
			close(e.done)
		}
		delete(c.entries, k)
	}
	c.head, c.tail = nil, nil
	c.ready = 0
	c.bytesLive = 0
	c.mu.Unlock()
	c.fire(evs)
	for _, w := range waiters {
		w(nil)
	}
	return freed
}
