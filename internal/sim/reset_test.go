package sim

import (
	"strings"
	"testing"
	"time"

	"faasbatch/internal/obs/obstest"
)

// TestReset verifies a reset engine behaves exactly like a fresh one:
// clock at zero, no pending events, and an identical random stream.
func TestReset(t *testing.T) {
	eng := New(7)
	fired := 0
	eng.Schedule(time.Second, func() { fired++ })
	eng.Schedule(2*time.Second, func() { fired++ })
	eng.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if eng.Now() != Time(2*time.Second) {
		t.Fatalf("Now = %v, want 2s", eng.Now())
	}

	eng.Reset(7)
	if eng.Now() != 0 {
		t.Errorf("Now after Reset = %v, want 0", eng.Now())
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending after Reset = %d, want 0", eng.Pending())
	}

	fresh := New(7)
	for i := 0; i < 100; i++ {
		if got, want := eng.Rand().Int63(), fresh.Rand().Int63(); got != want {
			t.Fatalf("draw %d: reset engine %d, fresh engine %d", i, got, want)
		}
	}
}

// TestResetDropsPendingEvents checks events scheduled before a reset never
// fire after it.
func TestResetDropsPendingEvents(t *testing.T) {
	eng := New(1)
	stale := false
	eng.Schedule(time.Second, func() { stale = true })
	eng.Reset(1)
	eng.Schedule(time.Millisecond, func() {})
	eng.Run()
	if stale {
		t.Fatal("event scheduled before Reset fired after it")
	}
}

// TestGrowPreallocates verifies Grow reserves heap capacity without
// disturbing scheduled events, and that scheduling within the grown
// capacity does not reallocate the backing array.
func TestGrowPreallocates(t *testing.T) {
	eng := New(1)
	order := []int{}
	eng.Schedule(2*time.Second, func() { order = append(order, 2) })
	eng.Grow(1000)
	if cap(eng.queue) < 1001 {
		t.Fatalf("cap = %d, want >= 1001", cap(eng.queue))
	}
	eng.Schedule(time.Second, func() { order = append(order, 1) })

	before := cap(eng.queue)
	for i := 0; i < 900; i++ {
		eng.Schedule(3*time.Second, func() {})
	}
	if cap(eng.queue) != before {
		t.Errorf("cap changed %d -> %d despite Grow reservation", before, cap(eng.queue))
	}
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// TestGrowReuseAcrossReset exercises the runner pattern the stress
// harness uses: Grow once, run, Reset, run again — the second run must
// not reallocate the heap.
func TestGrowReuseAcrossReset(t *testing.T) {
	eng := New(3)
	eng.Grow(512)
	for i := 0; i < 500; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	eng.Run()
	eng.Reset(3)
	before := cap(eng.queue)
	fired := 0
	for i := 0; i < 500; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	if cap(eng.queue) != before {
		t.Errorf("cap changed %d -> %d across Reset", before, cap(eng.queue))
	}
	eng.Run()
	if fired != 500 {
		t.Fatalf("fired = %d, want 500", fired)
	}
}

// TestResetDetachesTimers: scenario.Runner reuses one engine across
// -repeat runs, and the previous run's pools, containers and windows still
// hold timers armed in it. Reset must leave every one of them idle, so a
// late Stop or Reset cannot index into the next run's heap.
func TestResetDetachesTimers(t *testing.T) {
	eng := New(1)
	stale := false
	var old [3]Timer
	for i := range old {
		old[i].Init(eng, func() { stale = true })
		old[i].Reset(time.Duration(i+1) * time.Second)
	}
	eng.Schedule(time.Second, func() { stale = true })
	eng.Reset(1)
	for i := range old {
		if old[i].Active() {
			t.Fatalf("timer %d still active after Engine.Reset", i)
		}
	}
	fired := 0
	var fresh [3]Timer
	for i := range fresh {
		fresh[i].Init(eng, func() { fired++ })
		fresh[i].Reset(time.Duration(i+1) * time.Second)
	}
	// A holder from the old run stops its timer: nothing of the new run's
	// may move.
	for i := range old {
		if old[i].Stop() {
			t.Fatalf("Stop on detached timer %d reported it armed", i)
		}
	}
	if eng.Pending() != 3 {
		t.Fatalf("pending = %d after stale Stops, want the new run's 3", eng.Pending())
	}
	// ... and may arm it again, as a fresh timer of the new run.
	old[0].Reset(500 * time.Millisecond)
	eng.Run()
	if fired != 3 || !stale {
		t.Fatalf("fired %d of the new run's timers (want 3), re-armed old timer fired: %v", fired, stale)
	}
}

// TestScheduleStepAllocFree: once the free list holds as many one-shots as
// are ever in flight, scheduling and firing allocate nothing.
func TestScheduleStepAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	eng := New(1)
	noop := func() {}
	round := func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(time.Duration(i%7)*time.Millisecond, noop)
		}
		for eng.Step() {
		}
	}
	round() // fills the free list and sizes the heap
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("allocs per 64 schedule+step = %v, want 0", got)
	}
}

// TestTimerResetStopAllocFree: arming, moving, stopping and firing a
// caller-owned timer allocate nothing, ever.
func TestTimerResetStopAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	eng := New(1)
	eng.Grow(16)
	var tms [8]Timer
	for i := range tms {
		tms[i].Init(eng, func() {})
	}
	got := testing.AllocsPerRun(100, func() {
		for i := range tms {
			tms[i].Reset(time.Duration(i) * time.Millisecond)
		}
		for i := range tms {
			tms[i].Reset(time.Duration(8-i) * time.Millisecond)
		}
		tms[3].Stop()
		tms[5].Stop()
		for eng.Step() {
		}
	})
	if got != 0 {
		t.Fatalf("allocs per reset/stop/fire round = %v, want 0", got)
	}
}

// TestRecycledOneShotIsPoisoned: under the race build a one-shot on the
// free list has one owner, the engine, and using it any other way panics
// with the (at, seq) it last carried.
func TestRecycledOneShotIsPoisoned(t *testing.T) {
	if !poison {
		t.Skip("the one-owner check rides the race build")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "at 1s, seq 1") {
				t.Errorf("%s: recovered %q, want a panic naming at 1s, seq 1", name, msg)
			}
		}()
		fn()
	}
	eng := New(1)
	eng.Schedule(time.Second, func() {})
	eng.Run()
	n := eng.free // the fired one-shot
	if n == nil || !n.freed {
		t.Fatal("fired one-shot is not on the free list, marked")
	}
	mustPanic("re-queue", func() { n.ResetAt(Time(2 * time.Second)) })
	mustPanic("double free", func() { eng.release(n) })
	// Smuggle the freed node back into the heap: firing it must trip.
	eng.queue = append(eng.queue, slot{at: n.at, seq: n.seq, t: n})
	n.pos = 1
	mustPanic("fire", func() { eng.Step() })
}
