// Package router is the live multi-worker routing tier: it fronts a
// fleet of worker gateways (cmd/faasgate instances, each running
// internal/platform) and preserves FaaSBatch's batching locality across
// the fleet.
//
// The paper scopes FaaSBatch to one worker VM (§IV); internal/cluster
// scales it out in the simulator. This package is the live counterpart:
//
//   - a consistent-hash ring keyed by function name (bounded-load
//     variant), so each function's invocations land on one worker and
//     whole dispatch windows batch together, with least-loaded spillover
//     when a worker exceeds its load bound;
//   - a worker registry with periodic health probes against each
//     worker's /healthz readiness report, and mark-down/mark-up state
//     transitions that shrink and regrow the ring;
//   - a forwarding proxy with bounded retries/backoff and failover to
//     the next ring replica on connection errors, wired into
//     internal/chaos so worker death is testable deterministically;
//   - an admission-control front door — per-function concurrency limits
//     and a deadline-aware bounded queue that sheds load with 429 +
//     Retry-After instead of collapsing.
package router

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"faasbatch/internal/hashmix"
)

// Ring defaults.
const (
	// DefaultVNodes is the virtual-node count per ring member. 64 keeps
	// ownership spread within a few percent of even for small fleets
	// while the ring stays cheap to rebuild on membership changes.
	DefaultVNodes = 64
	// DefaultLoadBound is the bounded-load factor: a worker accepts new
	// keys while its in-flight load stays below ceil(factor * mean).
	DefaultLoadBound = 1.25
)

// hash64 is the shared splitmix64-finalised FNV-1a pipeline
// (internal/hashmix): raw FNV-1a avalanches poorly on trailing-byte
// differences, so "w1#0".."w1#63" (and "fn-0".."fn-99") would land on one
// tight arc and virtual nodes would stop spreading ownership. The shared
// implementation is deterministic across processes and platforms, so the
// simulator's cluster dispatcher and the live router agree on every
// assignment (the sim-vs-live conformance test depends on it).
func hash64(s string) uint64 { return hashmix.String(s) }

// ringEntry is one virtual node.
type ringEntry struct {
	hash   uint64
	member string
	slot   int // the member's dense index, see Ring.members
}

// Ring is a consistent-hash ring over named members with virtual nodes.
// It is not safe for concurrent use; the Registry serialises access.
type Ring struct {
	vnodes  int
	entries []ringEntry // sorted by hash, ties by member
	// members maps each member to a dense slot in [0, slots): a walk
	// around the ring tells members it has already met apart with one bit
	// per slot instead of a map. Remove frees a slot for the next Add.
	members map[string]int
	free    []int
	slots   int
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]int)}
}

// Add inserts a member; it reports false if the member already exists.
func (r *Ring) Add(member string) bool {
	if _, ok := r.members[member]; ok || member == "" {
		return false
	}
	slot := r.slots
	if n := len(r.free); n > 0 {
		slot, r.free = r.free[n-1], r.free[:n-1]
	} else {
		r.slots++
	}
	r.members[member] = slot
	for i := 0; i < r.vnodes; i++ {
		r.entries = append(r.entries, ringEntry{
			hash:   hash64(member + "#" + strconv.Itoa(i)),
			member: member,
			slot:   slot,
		})
	}
	sort.Slice(r.entries, func(a, b int) bool {
		if r.entries[a].hash != r.entries[b].hash {
			return r.entries[a].hash < r.entries[b].hash
		}
		return r.entries[a].member < r.entries[b].member
	})
	return true
}

// Remove deletes a member; it reports false if the member is absent.
// Surviving members' virtual nodes keep their positions, so only keys
// owned by the removed member move — the consistent-hashing stability
// property the rebalance tests assert.
func (r *Ring) Remove(member string) bool {
	slot, ok := r.members[member]
	if !ok {
		return false
	}
	delete(r.members, member)
	r.free = append(r.free, slot)
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.member != member {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(r.entries); i++ {
		r.entries[i] = ringEntry{}
	}
	r.entries = kept
	return true
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Pick returns the member owning key: the first virtual node clockwise
// from the key's hash. It reports false on an empty ring.
func (r *Ring) Pick(key string) (string, bool) {
	if len(r.entries) == 0 {
		return "", false
	}
	return r.entries[r.start(key)%len(r.entries)].member, true
}

// start is the index of the first virtual node clockwise from key's hash
// (len(entries) when the hash lies past the last one: wrap to zero).
func (r *Ring) start(key string) int {
	h := hash64(key)
	return sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
}

// walk calls visit once per distinct member in ring order starting
// clockwise from key's hash: the owner first, then the successive
// replicas an invocation fails over to.
func (r *Ring) walk(key string, visit func(member string)) {
	// One bit per slot; fleets of up to 512 slots stay off the heap.
	var small [8]uint64
	seen := small[:]
	if words := (r.slots + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	start, left := r.start(key), len(r.members)
	for i := 0; i < len(r.entries) && left > 0; i++ {
		e := &r.entries[(start+i)%len(r.entries)]
		if seen[e.slot/64]&(1<<(e.slot%64)) != 0 {
			continue
		}
		seen[e.slot/64] |= 1 << (e.slot % 64)
		left--
		visit(e.member)
	}
}

// LoadBound converts a bounded-load factor and a total in-flight count
// into the per-member admission bound: ceil(factor * (total+1) / members)
// — the "consistent hashing with bounded loads" capacity, counting the
// arriving invocation itself. Factors below 1 clamp to 1 (pure
// least-loaded would otherwise starve the ring).
func (r *Ring) LoadBound(factor float64, totalInflight int) int {
	if r.Len() == 0 {
		return 0
	}
	if factor < 1 {
		factor = 1
	}
	return int(math.Ceil(factor * float64(totalInflight+1) / float64(r.Len())))
}

// PickBounded appends to dst the ring's members ordered for one key
// under bounded load: ring candidates whose load (per loadOf) is below
// the bound first, in ring order, then the remaining members by
// ascending load (least-loaded spillover). Every member appears exactly
// once, so the order doubles as the failover order. total is the
// members' summed load, which the caller tracks. A dst with room for
// every member makes the pick allocation-free.
func (r *Ring) PickBounded(dst []string, key string, factor float64, total int, loadOf func(member string) int) []string {
	n := len(r.members)
	if n == 0 {
		return dst
	}
	bound := r.LoadBound(factor, total)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	// Under-bound members fill out from the front, the spill from the
	// back (so in reverse ring order until it is turned around below).
	front, back := 0, n
	r.walk(key, func(member string) {
		if loadOf(member) < bound {
			out[front] = member
			front++
		} else {
			back--
			out[back] = member
		}
	})
	spill := out[front:]
	slices.Reverse(spill)
	slices.SortStableFunc(spill, func(a, b string) int { return loadOf(a) - loadOf(b) })
	return dst
}
