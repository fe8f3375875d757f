package pullsched

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"faasbatch/internal/obs/obstest"
)

func mustNew(t *testing.T, cfg Config) *Core {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero workers")
	}
	if _, err := New(Config{Workers: 2, QueueDepth: -1}); err == nil {
		t.Fatal("New accepted negative queue depth")
	}
	c := mustNew(t, Config{Workers: 2})
	cfg := c.Config()
	if cfg.BatchSize != DefaultBatchSize || cfg.Capacity != DefaultCapacity {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// An arrival with idle capacity grants immediately, least-loaded
// lowest-index first.
func TestImmediateGrant(t *testing.T) {
	c := mustNew(t, Config{Workers: 2})
	gs, shed := c.Enqueue(1, "hot", 0)
	if shed || len(gs) != 1 || gs[0].Worker != 0 || gs[0].ID != 1 || gs[0].Requeue {
		t.Fatalf("first enqueue: gs=%+v shed=%v", gs, shed)
	}
	gs, _ = c.Enqueue(2, "hot", time.Millisecond)
	if len(gs) != 1 || gs[0].Worker != 1 {
		t.Fatalf("second enqueue should late-bind to the idle worker: %+v", gs)
	}
	if c.workers[0].inflight != 1 || c.workers[1].inflight != 1 {
		t.Fatalf("inflight = %d,%d want 1,1", c.workers[0].inflight, c.workers[1].inflight)
	}
}

// A drained backlog grants in BatchSize batches, each batch to one
// worker (batching locality), overflowing to the next-least-loaded.
func TestBatchLocality(t *testing.T) {
	c := mustNew(t, Config{Workers: 2, BatchSize: 4, Capacity: 4})
	for w := 0; w < 2; w++ {
		c.SetWorker(w, false, 0)
	}
	for i := int64(1); i <= 6; i++ {
		if gs, shed := c.Enqueue(i, "hot", 0); len(gs) != 0 || shed {
			t.Fatalf("enqueue %d with no eligible workers: gs=%+v shed=%v", i, gs, shed)
		}
	}
	gs := c.SetWorker(0, true, time.Millisecond)
	if len(gs) != 4 {
		t.Fatalf("wake granted %d, want one BatchSize batch of 4: %+v", len(gs), gs)
	}
	for _, g := range gs {
		if g.Worker != 0 {
			t.Fatalf("batch split across workers: %+v", gs)
		}
	}
	gs = c.SetWorker(1, true, 2*time.Millisecond)
	if len(gs) != 2 || gs[0].Worker != 1 || gs[1].Worker != 1 {
		t.Fatalf("remainder should land on the newly idle worker: %+v", gs)
	}
	if q := c.queues["hot"]; q != nil {
		t.Fatalf("queue depth %d after drain", q.len())
	}
}

// The depth bound sheds arrivals — the pull policy's admission control.
func TestQueueDepthShed(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, QueueDepth: 2, Capacity: 1})
	c.Enqueue(1, "hot", 0) // leased
	c.Enqueue(2, "hot", 0) // queued
	c.Enqueue(3, "hot", 0) // queued
	gs, shed := c.Enqueue(4, "hot", 0)
	if !shed || len(gs) != 0 {
		t.Fatalf("fourth arrival should shed at depth 2: gs=%+v shed=%v", gs, shed)
	}
	st := c.Stats()
	if st.Shed != 1 || st.Enqueued != 3 || st.Queued != 2 {
		t.Fatalf("stats after shed: %+v", st)
	}
}

// A failed lease requeues exactly once and its re-grant prefers a
// different worker — failover, not a retry against the dead worker.
func TestFailRequeuesToDifferentWorker(t *testing.T) {
	c := mustNew(t, Config{Workers: 2})
	gs, _ := c.Enqueue(1, "hot", 0)
	if gs[0].Worker != 0 {
		t.Fatalf("setup: %+v", gs)
	}
	gs = c.Fail(1, time.Millisecond)
	if len(gs) != 1 || !gs[0].Requeue || gs[0].Worker != 1 || gs[0].ID != 1 {
		t.Fatalf("re-grant = %+v, want requeue of id 1 on worker 1", gs)
	}
	if again := c.Fail(99, time.Millisecond); len(again) != 0 {
		t.Fatalf("unknown id produced grants: %+v", again)
	}
	st := c.Stats()
	if st.Requeues != 1 || st.Granted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// When only the failed worker has capacity the re-grant falls back to
// it rather than starving.
func TestFailFallsBackToOnlyWorker(t *testing.T) {
	c := mustNew(t, Config{Workers: 1})
	c.Enqueue(1, "hot", 0)
	gs := c.Fail(1, time.Millisecond)
	if len(gs) != 1 || gs[0].Worker != 0 || !gs[0].Requeue {
		t.Fatalf("re-grant = %+v", gs)
	}
}

// A requeued item keeps its admission sequence: it re-dispatches before
// later arrivals of the same function.
func TestRequeueKeepsQueuePosition(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, Capacity: 1, BatchSize: 1})
	c.Enqueue(1, "hot", 0) // leased
	c.Enqueue(2, "hot", 0) // queued behind it
	gs := c.Fail(1, time.Millisecond)
	if len(gs) != 1 || gs[0].ID != 1 {
		t.Fatalf("failed head should re-grant before the later arrival: %+v", gs)
	}
	gs = c.Complete(1, 2*time.Millisecond)
	if len(gs) != 1 || gs[0].ID != 2 {
		t.Fatalf("completion should pull the waiting arrival: %+v", gs)
	}
}

// Queued work wakes a worker that turns eligible — scale-from-zero.
func TestWakeDrainsQueue(t *testing.T) {
	c := mustNew(t, Config{Workers: 2})
	c.SetWorker(0, false, 0)
	c.SetWorker(1, false, 0)
	for i := int64(1); i <= 3; i++ {
		c.Enqueue(i, "hot", 0)
	}
	gs := c.SetWorker(1, true, time.Millisecond)
	if len(gs) != 3 {
		t.Fatalf("wake drained %d/3: %+v", len(gs), gs)
	}
	for _, g := range gs {
		if g.Worker != 1 {
			t.Fatalf("grant to ineligible worker: %+v", g)
		}
	}
}

// The deepest queue is served first; ties break on the earliest head
// admission sequence, so the decision order is total.
func TestDeepestQueueFirst(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, BatchSize: 8, Capacity: 8})
	c.SetWorker(0, false, 0)
	c.Enqueue(1, "cold", 0)
	c.Enqueue(2, "hot", 0)
	c.Enqueue(3, "hot", 0)
	gs := c.SetWorker(0, true, time.Millisecond)
	want := []int64{2, 3, 1}
	var got []int64
	for _, g := range gs {
		got = append(got, g.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grant order %v, want hot queue (deeper) first: %v", got, want)
	}
}

// Replaying one event script through two cores yields identical grant
// sequences — what makes the sim's and the live router's drivers agree.
func TestDeterministicReplay(t *testing.T) {
	script := func(c *Core) (log []Grant) {
		fns := []string{"alpha", "beta", "gamma", "hot", "hot", "hot"}
		id := int64(0)
		for round := 0; round < 8; round++ {
			off := time.Duration(round) * 10 * time.Millisecond
			for _, fn := range fns {
				id++
				gs, _ := c.Enqueue(id, fn, off)
				log = append(log, gs...)
			}
			if round == 2 {
				log = append(log, c.SetWorker(1, false, off)...)
			}
			if round == 5 {
				log = append(log, c.SetWorker(1, true, off)...)
			}
			log = append(log, c.Fail(id, off+time.Millisecond)...)
			for done := id - int64(len(fns)) + 1; done <= id; done++ {
				log = append(log, c.Complete(done, off+5*time.Millisecond)...)
			}
		}
		return log
	}
	cfg := Config{Workers: 4, Capacity: 2, BatchSize: 2, QueueDepth: 16}
	a, b := mustNew(t, cfg), mustNew(t, cfg)
	logA, logB := script(a), script(b)
	if !reflect.DeepEqual(logA, logB) {
		t.Fatal("two replays of one script diverged")
	}
	if len(logA) == 0 {
		t.Fatal("script produced no grants")
	}
	for i, g := range logA {
		if g.Seq != uint64(i+1) {
			t.Fatalf("grant %d has seq %d: the returned grants are not the whole decision sequence", i, g.Seq)
		}
	}
	st := a.Stats()
	if st.Queued != 0 || st.Leases != 0 || st.Granted != uint64(len(logA)) {
		t.Fatalf("script should quiesce with every grant returned: %+v (%d returned)", st, len(logA))
	}
	// Conservation: everything admitted was acked, aborted, or still held.
	if st.Enqueued != st.Completed+st.Aborted {
		t.Fatalf("conservation: enqueued %d != completed %d + aborted %d", st.Enqueued, st.Completed, st.Aborted)
	}
}

// Abort releases a lease or withdraws a queued item.
func TestAbort(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, Capacity: 1})
	c.Enqueue(1, "hot", 0)
	c.Enqueue(2, "hot", 0)
	if gs := c.Abort(2, time.Millisecond); len(gs) != 0 {
		t.Fatalf("aborting a queued item granted: %+v", gs)
	}
	if gs := c.Abort(1, 2*time.Millisecond); len(gs) != 0 {
		t.Fatalf("nothing left to grant: %+v", gs)
	}
	st := c.Stats()
	if st.Aborted != 2 || st.Queued != 0 || st.Leases != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Once its queues, lease map and grant slice have grown, the core
// allocates nothing per invocation: not on the Enqueue→Complete cycle
// of an idle fleet, and not on Enqueue→Fail→re-grant→Complete.
func TestSteadyStateAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := mustNew(t, Config{Workers: 2, Capacity: 2})
	id := int64(0)
	complete := func() {
		id++
		if gs, shed := c.Enqueue(id, "hot", 0); shed || len(gs) != 1 || gs[0].ID != id {
			t.Fatalf("enqueue %d: %+v shed=%v", id, gs, shed)
		}
		if gs := c.Complete(id, 0); len(gs) != 0 {
			t.Fatalf("complete %d granted %+v", id, gs)
		}
	}
	failover := func() {
		id++
		gs, _ := c.Enqueue(id, "cold", 0)
		if len(gs) != 1 {
			t.Fatalf("enqueue %d: %+v", id, gs)
		}
		first := gs[0].Worker
		gs = c.Fail(id, 0)
		if len(gs) != 1 || gs[0].ID != id || !gs[0].Requeue || gs[0].Worker == first {
			t.Fatalf("fail %d re-granted %+v, first lease on %d", id, gs, first)
		}
		c.Complete(id, 0)
	}
	for i := 0; i < 16; i++ {
		complete()
		failover()
	}
	if n := testing.AllocsPerRun(200, complete); n != 0 {
		t.Errorf("Enqueue→Complete allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, failover); n != 0 {
		t.Errorf("Enqueue→Fail→Complete allocates %.1f objects/op, want 0", n)
	}
	if st := c.Stats(); st.Queued != 0 || st.Leases != 0 {
		t.Fatalf("core not quiescent: %+v", st)
	}
}

// A queue that empties goes to the free list and serves the next
// function; a backlog that never empties keeps its queue bounded by its
// depth, not by how many items ever passed through it.
func TestQueueReuse(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, Capacity: 1, BatchSize: 1})
	c.Enqueue(1, "a", 0) // leased
	c.Enqueue(2, "a", 0) // queued
	q := c.queues["a"]
	c.Complete(1, 0) // grants 2: "a" empties
	if c.queues["a"] != nil || len(c.free) != 1 || c.free[0] != q {
		t.Fatalf("emptied queue not free-listed: free=%v", c.free)
	}
	c.Enqueue(3, "b", 0)
	if c.queues["b"] != q || len(c.free) != 0 {
		t.Fatal("next queue did not come off the free list")
	}
	// A steady backlog of one behind a busy worker: push at the back,
	// pop at the front, forever.
	for id := int64(4); id < 1000; id++ {
		c.Complete(id-2, 0)
		c.Enqueue(id, "b", 0)
		if q.len() != 1 {
			t.Fatalf("backlog depth %d, want 1", q.len())
		}
	}
	if cap(q.items) > 8 {
		t.Fatalf("steady backlog of one grew its queue to %d", cap(q.items))
	}
}

// A requeue lands at the front whether or not the queue has a popped
// prefix to reuse, and the queue keeps FIFO order behind it.
func TestRequeueAtFront(t *testing.T) {
	c := mustNew(t, Config{Workers: 1, Capacity: 2, BatchSize: 1})
	for id := int64(1); id <= 5; id++ {
		c.Enqueue(id, "hot", 0) // 1 and 2 leased, 3..5 queued
	}
	c.SetWorker(0, false, 0)
	c.Fail(2, 0) // front of a queue with a popped prefix
	c.Fail(1, 0) // front again
	q := c.queues["hot"]
	var got []int64
	for i := q.head; i < len(q.items); i++ {
		got = append(got, q.items[i].id)
	}
	if want := []int64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queue %v, want %v", got, want)
	}
	gs := c.SetWorker(0, true, 0)
	if len(gs) != 2 || gs[0].ID != 1 || gs[1].ID != 2 {
		t.Fatalf("re-grants %+v, want 1 then 2", gs)
	}
}

// Under the race build, a free-listed queue that still holds items
// panics when it is taken for the next function.
func TestPullQueueFreeListPoisoned(t *testing.T) {
	if !poison {
		t.Skip("the free-list check rides the race build")
	}
	c := mustNew(t, Config{Workers: 1})
	c.Enqueue(1, "a", 0)
	c.Complete(1, 0)
	if len(c.free) != 1 {
		t.Fatalf("free list %d, want 1", len(c.free))
	}
	c.free[0].items = append(c.free[0].items, item{id: 99, fn: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("a free-listed queue holding an item was reused")
		}
	}()
	c.Enqueue(2, "b", 0)
}

// BenchmarkCoreGrantDeep measures a grant's queue scan at scale: 1,000
// functions each hold one queued invocation behind a single busy lease
// slot, and every op completes the lease (which grants the oldest head)
// and refills the granted function's queue.
func BenchmarkCoreGrantDeep(b *testing.B) {
	const fns = 1000
	c, err := New(Config{Workers: 1, Capacity: 1, BatchSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, fns)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%d", i)
	}
	c.Enqueue(0, names[0], 0) // takes the only lease
	leased := int64(0)
	for i := 1; i <= fns; i++ {
		c.Enqueue(int64(i), names[i-1], 0)
	}
	next := int64(fns + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := c.Complete(leased, 0)
		if len(gs) != 1 {
			b.Fatalf("complete granted %d, want 1", len(gs))
		}
		leased = gs[0].ID
		c.Enqueue(next, gs[0].Fn, 0)
		next++
	}
}
