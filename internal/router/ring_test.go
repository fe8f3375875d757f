package router

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// testKeys generates a deterministic key set large enough to exercise
// every ring segment.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fn-%d", i)
	}
	return keys
}

func ownerMap(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		m, ok := r.Pick(k)
		if !ok {
			t.Fatalf("Pick(%q) on non-empty ring failed", k)
		}
		out[k] = m
	}
	return out
}

func TestRingAddRemove(t *testing.T) {
	r := NewRing(0)
	if r.vnodes != DefaultVNodes {
		t.Fatalf("vnodes = %d, want default %d", r.vnodes, DefaultVNodes)
	}
	if _, ok := r.Pick("fn"); ok {
		t.Fatal("empty ring picked a member")
	}
	if !r.Add("a") || !r.Add("b") {
		t.Fatal("Add failed")
	}
	if r.Add("a") {
		t.Fatal("duplicate Add accepted")
	}
	if r.Add("") {
		t.Fatal("empty member accepted")
	}
	if got := ringMembers(r); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members = %v", got)
	}
	if !r.Remove("a") {
		t.Fatal("Remove failed")
	}
	if r.Remove("a") {
		t.Fatal("double Remove accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if len(r.entries) != r.vnodes {
		t.Fatalf("entries = %d, want %d", len(r.entries), r.vnodes)
	}
}

// TestRingStability is the consistent-hashing property: removing one
// member moves only the keys it owned, and re-adding it restores the
// original ownership exactly.
func TestRingStability(t *testing.T) {
	r := NewRing(64)
	for _, m := range []string{"w1", "w2", "w3"} {
		r.Add(m)
	}
	keys := testKeys(500)
	before := ownerMap(t, r, keys)

	r.Remove("w2")
	after := ownerMap(t, r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] == "w2" {
			if after[k] == "w2" {
				t.Fatalf("key %q still owned by removed member", k)
			}
			moved++
			continue
		}
		if after[k] != before[k] {
			t.Errorf("key %q moved %s -> %s though its owner survived", k, before[k], after[k])
		}
	}
	if moved == 0 {
		t.Fatal("w2 owned no keys out of 500; vnode spread is broken")
	}

	r.Add("w2")
	restored := ownerMap(t, r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Errorf("key %q not restored after re-add: %s != %s", k, restored[k], before[k])
		}
	}
}

// TestRingCandidatesDistinct: on an idle fleet the bounded pick is the
// plain ring walk — every member once, the owner first, then the
// replicas an invocation fails over to.
func TestRingCandidatesDistinct(t *testing.T) {
	r := NewRing(32)
	members := []string{"w1", "w2", "w3", "w4"}
	for _, m := range members {
		r.Add(m)
	}
	for _, k := range testKeys(50) {
		c := r.PickBounded(nil, k, DefaultLoadBound, 0, func(string) int { return 0 })
		if len(c) != len(members) {
			t.Fatalf("candidates(%q) = %v, want all %d members", k, c, len(members))
		}
		seen := make(map[string]bool)
		for _, m := range c {
			if seen[m] {
				t.Fatalf("candidates(%q) repeats %q: %v", k, m, c)
			}
			seen[m] = true
		}
		owner, _ := r.Pick(k)
		if c[0] != owner {
			t.Fatalf("candidates(%q)[0] = %q, owner = %q", k, c[0], owner)
		}
	}
}

func TestRingLoadBound(t *testing.T) {
	r := NewRing(8)
	if got := r.LoadBound(1.25, 10); got != 0 {
		t.Fatalf("empty-ring bound = %d, want 0", got)
	}
	r.Add("w1")
	r.Add("w2")
	// ceil(1.25 * (10+1) / 2) = ceil(6.875) = 7.
	if got := r.LoadBound(1.25, 10); got != 7 {
		t.Fatalf("bound = %d, want 7", got)
	}
	// Sub-1 factors clamp to 1: ceil(1 * 11 / 2) = 6.
	if got := r.LoadBound(0.5, 10); got != 6 {
		t.Fatalf("clamped bound = %d, want 6", got)
	}
	// An idle fleet always admits the arriving invocation somewhere.
	if got := r.LoadBound(1.25, 0); got < 1 {
		t.Fatalf("idle bound = %d, want >= 1", got)
	}
}

// TestRingPickBoundedSpillover drives one key's owner past the load
// bound and asserts the pick order spills to the least-loaded replica
// while every member still appears exactly once (failover order).
func TestRingPickBoundedSpillover(t *testing.T) {
	r := NewRing(64)
	for _, m := range []string{"w1", "w2", "w3"} {
		r.Add(m)
	}
	const key = "hot-fn"
	owner, _ := r.Pick(key)

	// Unloaded: bounded pick preserves plain ring order.
	idle := r.PickBounded(nil, key, 1.25, 0, func(string) int { return 0 })
	if len(idle) != 3 || idle[0] != owner {
		t.Fatalf("idle PickBounded = %v, owner %q", idle, owner)
	}

	// Overload the owner: total 12 over 3 members, bound ceil(1.25*13/3)=6.
	loads := map[string]int{owner: 12}
	picked := r.PickBounded(nil, key, 1.25, 12, func(m string) int { return loads[m] })
	if len(picked) != 3 {
		t.Fatalf("PickBounded = %v, want 3 members", picked)
	}
	if picked[0] == owner {
		t.Fatalf("overloaded owner %q still picked first: %v", owner, picked)
	}
	if picked[len(picked)-1] != owner {
		t.Fatalf("overloaded owner should spill to the back: %v", picked)
	}
	seen := make(map[string]bool)
	for _, m := range picked {
		if seen[m] {
			t.Fatalf("PickBounded repeats %q: %v", m, picked)
		}
		seen[m] = true
	}

	// Two members over the bound: the idle one leads, the overloaded pair
	// spills in ascending-load order. Bound = ceil(1 * 191 / 3) = 64.
	loads = map[string]int{"w1": 100, "w2": 90, "w3": 0}
	picked = r.PickBounded(nil, key, 1, 190, func(m string) int { return loads[m] })
	if picked[0] != "w3" || picked[1] != "w2" || picked[2] != "w1" {
		t.Fatalf("spillover order = %v, want [w3 w2 w1] (idle, then ascending load)", picked)
	}
}

// TestRingDistribution sanity-checks vnode spread: with 64 vnodes no
// member of a 3-worker ring should own a wildly disproportionate share.
func TestRingDistribution(t *testing.T) {
	r := NewRing(DefaultVNodes)
	for _, m := range []string{"w1", "w2", "w3"} {
		r.Add(m)
	}
	counts := make(map[string]int)
	keys := testKeys(3000)
	for _, k := range keys {
		m, _ := r.Pick(k)
		counts[m]++
	}
	for m, c := range counts {
		share := float64(c) / float64(len(keys))
		if share < 0.10 || share > 0.60 {
			t.Errorf("member %s owns %.0f%% of keys; spread is broken: %v", m, share*100, counts)
		}
	}
}

// referenceCandidates and referencePickBounded are the ring walk as it
// was before entries carried a dense slot: a map of members already met,
// and a sorted copy of the member list per pick. Kept as the oracle for
// TestRingPicksMatchReference.
func referenceCandidates(r *Ring, key string, max int) []string {
	if len(r.entries) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.members) {
		max = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	out := make([]string, 0, max)
	seen := make(map[string]struct{}, max)
	for i := 0; i < len(r.entries) && len(out) < max; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if _, dup := seen[e.member]; dup {
			continue
		}
		seen[e.member] = struct{}{}
		out = append(out, e.member)
	}
	return out
}

// ringMembers lists r's members, sorted.
func ringMembers(r *Ring) []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func referencePickBounded(r *Ring, key string, factor float64, loadOf func(member string) int) []string {
	members := ringMembers(r)
	if len(members) == 0 {
		return nil
	}
	total := 0
	for _, m := range members {
		total += loadOf(m)
	}
	bound := r.LoadBound(factor, total)
	ringOrder := referenceCandidates(r, key, len(members))
	out := make([]string, 0, len(members))
	var spill []string
	for _, m := range ringOrder {
		if loadOf(m) < bound {
			out = append(out, m)
		} else {
			spill = append(spill, m)
		}
	}
	sort.SliceStable(spill, func(a, b int) bool { return loadOf(spill[a]) < loadOf(spill[b]) })
	return append(out, spill...)
}

// TestRingPicksMatchReference: over seeded random rings — members added
// and removed so slots are freed and reused, fleets past the 512 slots
// the walk keeps on the stack — loads and bounds, Pick and PickBounded
// answer exactly what the reference walk answers.
func TestRingPicksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 60; round++ {
		r := NewRing(1 + rng.Intn(8))
		pool := 1 + rng.Intn(40)
		if round%20 == 19 {
			pool = 600
		}
		loads := map[string]int{}
		for step := 0; step < 3*pool; step++ {
			m := "w" + strconv.Itoa(rng.Intn(pool))
			if rng.Intn(3) == 0 {
				r.Remove(m)
			} else {
				r.Add(m)
			}
			loads[m] = rng.Intn(4) * rng.Intn(20)
		}
		loadOf := func(m string) int { return loads[m] }
		total := 0
		for _, m := range ringMembers(r) {
			total += loads[m]
		}
		for i := 0; i < 40; i++ {
			key := "fn-" + strconv.Itoa(rng.Intn(1000))
			factor := []float64{0.5, 1, 1.25, 2, 10}[rng.Intn(5)]
			got := r.PickBounded(nil, key, factor, total, loadOf)
			if want := referencePickBounded(r, key, factor, loadOf); !slices.Equal(got, want) {
				t.Fatalf("round %d: PickBounded(%q, %v) = %v, reference %v", round, key, factor, got, want)
			}
			owner, ok := r.Pick(key)
			if ref := referenceCandidates(r, key, 1); ok != (len(ref) == 1) || (ok && owner != ref[0]) {
				t.Fatalf("round %d: Pick(%q) = %q, %v; reference %v", round, key, owner, ok, ref)
			}
		}
	}
}

// TestRingPickBoundedIntoCallerSliceAllocFree pins the per-request cost
// of the routed path's ring lookup: picking into a slice the caller
// keeps allocates nothing, and the pick appends after what dst holds.
func TestRingPickBoundedIntoCallerSliceAllocFree(t *testing.T) {
	r := NewRing(DefaultVNodes)
	for i := 0; i < 100; i++ {
		r.Add("w" + strconv.Itoa(i))
	}
	loadOf := func(m string) int { return len(m) } // some over the bound, some under
	want := r.PickBounded(nil, "fib", 1, 290, loadOf)
	if got := r.PickBounded([]string{"x"}, "fib", 1, 290, loadOf); got[0] != "x" || !slices.Equal(got[1:], want) {
		t.Fatalf("PickBounded after a prefix = %v, want x then %v", got, want)
	}
	dst := make([]string, 0, 100)
	if n := testing.AllocsPerRun(100, func() { dst = r.PickBounded(dst[:0], "fib", 1, 290, loadOf) }); n != 0 {
		t.Errorf("PickBounded into a caller-owned slice allocates %.1f objects/op, want 0", n)
	}
	if !slices.Equal(dst, want) {
		t.Fatalf("PickBounded into dst = %v, want %v", dst, want)
	}
}
