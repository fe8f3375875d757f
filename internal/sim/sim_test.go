package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine pending = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := New(1)
	var at Time
	e.Schedule(100*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if got, want := at, Time(100*time.Millisecond); got != want {
		t.Fatalf("event fired at %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Fatalf("clock = %v, want %v", e.Now(), at)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(300*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(100*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(200*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Hour, func() {
			fired = true
			if e.Now() != Time(time.Second) {
				t.Errorf("clamped event fired at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestScheduleAtPastClampsToNow(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() {
			if e.Now() != Time(time.Second) {
				t.Errorf("past event fired at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	var tm Timer
	tm.Init(e, func() { fired = true })
	if tm.Active() || tm.Stop() {
		t.Fatal("a timer never armed reports active")
	}
	tm.Reset(time.Second)
	if !tm.Active() || tm.At() != Time(time.Second) || e.Pending() != 1 {
		t.Fatalf("armed timer: active %v, at %v, pending %d", tm.Active(), tm.At(), e.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported idle")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Stop: a stopped timer must leave the heap", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	// Stop is idempotent.
	if tm.Stop() {
		t.Fatal("second Stop reported an armed timer")
	}
}

func TestTimerStopFromEarlierEvent(t *testing.T) {
	e := New(1)
	fired := false
	var tm Timer
	tm.Init(e, func() { fired = true })
	tm.Reset(2 * time.Second)
	e.Schedule(time.Second, func() { tm.Stop() })
	e.Run()
	if fired {
		t.Fatal("timer stopped mid-run still fired")
	}
}

// A timer is idle by the time its callback runs, so the callback can re-arm
// it (a ticker) or stop it (harmlessly) — the three holders of the old
// event handles all did one or the other from inside their own event.
func TestTimerResetFromOwnCallback(t *testing.T) {
	e := New(1)
	var fires []Time
	var tm Timer
	tm.Init(e, func() {
		if tm.Active() {
			t.Error("timer still active inside its callback")
		}
		tm.Stop()
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			tm.Reset(time.Second)
		}
	})
	tm.Reset(time.Second)
	e.Run()
	if len(fires) != 3 || fires[2] != Time(3*time.Second) {
		t.Fatalf("fires = %v, want three, one second apart", fires)
	}
}

// TestTimerResetMovesInPlace: re-arming an armed timer earlier or later
// keeps one heap entry and fires once, at the last deadline set.
func TestTimerResetMovesInPlace(t *testing.T) {
	e := New(1)
	var fires []Time
	var tm Timer
	tm.Init(e, func() { fires = append(fires, e.Now()) })
	for i := 0; i < 50; i++ {
		e.Schedule(time.Duration(i)*100*time.Millisecond, func() {})
	}
	tm.Reset(3 * time.Second)
	tm.Reset(time.Second)
	tm.Reset(2 * time.Second)
	if e.Pending() != 51 {
		t.Fatalf("pending = %d, want 51: Reset must move the timer, not add an entry", e.Pending())
	}
	e.Run()
	if len(fires) != 1 || fires[0] != Time(2*time.Second) {
		t.Fatalf("fires = %v, want [2s]", fires)
	}
}

// TestTimerResetKeepsFIFOAmongEquals: a re-armed timer takes a fresh
// sequence number, so it fires after events already queued for the same
// instant — where "cancel, then schedule anew" put it, and the order every
// committed report hash depends on.
func TestTimerResetKeepsFIFOAmongEquals(t *testing.T) {
	e := New(1)
	var order []string
	var tm Timer
	tm.Init(e, func() { order = append(order, "timer") })
	tm.Reset(time.Second) // armed first ...
	e.Schedule(time.Second, func() { order = append(order, "a") })
	e.Schedule(time.Second, func() { order = append(order, "b") })
	tm.Reset(time.Second) // ... re-armed last, for the same instant
	e.Schedule(time.Second, func() { order = append(order, "c") })
	e.Run()
	if got := strings.Join(order, " "); got != "a b timer c" {
		t.Fatalf("order = %q, want %q", got, "a b timer c")
	}
}

// TestResetToKeepsReservedPlace: a timer armed at a reserved deadline
// fires where an event scheduled at the reservation would have — after
// what was queued for that instant before the reservation, ahead of what
// was queued after it — however late it is armed, moved or re-armed.
func TestResetToKeepsReservedPlace(t *testing.T) {
	e := New(1)
	var order []string
	var tm Timer
	tm.Init(e, func() { order = append(order, "timer") })
	e.Schedule(time.Second, func() { order = append(order, "a") })
	d := e.Reserve(time.Second)
	e.Schedule(time.Second, func() { order = append(order, "b") })
	tm.Reset(2 * time.Second) // armed elsewhere first ...
	e.Schedule(time.Second, func() { order = append(order, "c") })
	tm.ResetTo(d) // ... then moved to the reservation
	if !tm.Active() || tm.At() != Time(time.Second) {
		t.Fatalf("Active = %v, At = %v, want armed at 1s", tm.Active(), tm.At())
	}
	e.Run()
	if got := strings.Join(order, " "); got != "a timer b c" {
		t.Fatalf("order = %q, want %q", got, "a timer b c")
	}
}

func TestTimerResetAtPastClampsToNow(t *testing.T) {
	e := New(1)
	var tm Timer
	tm.Init(e, func() {})
	e.RunUntil(Time(5 * time.Second))
	tm.ResetAt(Time(time.Second))
	if tm.At() != Time(5*time.Second) {
		t.Fatalf("At = %v, want the clamped 5s", tm.At())
	}
	tm.Reset(-time.Hour)
	if tm.At() != Time(5*time.Second) {
		t.Fatalf("At = %v after a negative Reset, want 5s", tm.At())
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(Time(2 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	// The 3s event is still pending.
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	e := New(1)
	e.RunUntil(Time(5 * time.Second))
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	e := New(1)
	depth := 0
	var last Time
	var chain func()
	chain = func() {
		depth++
		last = e.Now()
		if depth < 5 {
			e.Schedule(time.Second, chain)
		}
	}
	e.Schedule(time.Second, chain)
	e.Run()
	if depth != 5 {
		t.Fatalf("chain depth = %d, want 5", depth)
	}
	if last != Time(5*time.Second) {
		t.Fatalf("last fired at %v, want 5s", last)
	}
}

// TestFiredCounter counts the callbacks a run fires: every scheduled
// event once, a stopped timer never.
func TestFiredCounter(t *testing.T) {
	e := New(1)
	fired := 0
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	var tm Timer
	tm.Init(e, func() { fired++ })
	tm.Reset(time.Second)
	tm.Stop()
	steps := 0
	for e.Step() {
		steps++
	}
	if fired != 7 || steps != 7 {
		t.Fatalf("fired = %d in %d steps, want 7 (stopped timers don't count)", fired, steps)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := New(42)
		var vals []float64
		for i := 0; i < 20; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() {
				vals = append(vals, e.Rand().Float64())
			})
		}
		e.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	tk, err := NewTicker(e, 100*time.Millisecond, func(now Time) { ticks = append(ticks, now) })
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	e.RunUntil(Time(350 * time.Millisecond))
	tk.Stop()
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, tick := range ticks {
		want := Time(time.Duration(i+1) * 100 * time.Millisecond)
		if tick != want {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerStopIsIdempotentAndStopsFutureTicks(t *testing.T) {
	e := New(1)
	n := 0
	tk, err := NewTicker(e, time.Second, func(Time) { n++ })
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	tk.Stop()
	tk.Stop()
	e.RunUntil(Time(10 * time.Second))
	if n != 0 {
		t.Fatalf("stopped ticker ticked %d times", n)
	}
}

func TestTickerRejectsNonPositivePeriod(t *testing.T) {
	e := New(1)
	if _, err := NewTicker(e, 0, func(Time) {}); err == nil {
		t.Fatal("NewTicker(0) succeeded, want error")
	}
	if _, err := NewTicker(e, -time.Second, func(Time) {}); err == nil {
		t.Fatal("NewTicker(-1s) succeeded, want error")
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk, err := NewTicker(e, time.Second, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	e.RunUntil(Time(10 * time.Second))
	if n != 2 {
		t.Fatalf("ticker ticked %d times, want 2", n)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine fires exactly len(delays) events.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		e := New(7)
		var fireTimes []Time
		for _, r := range raw {
			d := time.Duration(r%1_000_000) * time.Microsecond
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never leaves the clock before the requested time and
// never fires events scheduled after it.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(raw []uint16, cut uint16) bool {
		e := New(3)
		cutoff := Time(time.Duration(cut) * time.Millisecond)
		late := 0
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			e.Schedule(d, func() {
				if e.Now() > cutoff {
					late++
				}
			})
		}
		e.RunUntil(cutoff)
		return late == 0 && e.Now() >= cutoff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of Schedule, Reset, Stop and Step fires
// exactly what a sorted-slice reference model fires, in the same order.
// The model keeps every live event in a slice, sorts it by (at, seq) and
// takes the head; the engine's indexed heap has to agree with it.
func TestPropertyMatchesSortedSliceModel(t *testing.T) {
	type ref struct {
		at  Time
		seq uint64
		id  int
	}
	f := func(seed int64, steps uint16) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(seed)
		const timers = 8
		var (
			model []ref // live events
			seq   uint64
			now   Time
			got   []int
			want  []int
			tms   [timers]Timer
		)
		drop := func(id int) {
			model = slices.DeleteFunc(model, func(m ref) bool { return m.id == id })
		}
		add := func(id int, d time.Duration) {
			seq++
			model = append(model, ref{at: now.Add(d), seq: seq, id: id})
		}
		for i := range tms {
			id := i
			tms[i].Init(e, func() { got = append(got, id) })
		}
		oneShot := timers
		for i := 0; i < int(steps)%400; i++ {
			d := time.Duration(r.Intn(50)) * time.Millisecond
			k := r.Intn(timers)
			switch r.Intn(5) {
			case 0:
				id := oneShot
				oneShot++
				e.Schedule(d, func() { got = append(got, id) })
				add(id, d)
			case 1, 2:
				tms[k].Reset(d)
				drop(k)
				add(k, d)
			case 3:
				active := slices.ContainsFunc(model, func(m ref) bool { return m.id == k })
				if tms[k].Active() != active || tms[k].Stop() != active {
					return false
				}
				drop(k)
			default:
				slices.SortFunc(model, func(a, b ref) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
				})
				if e.Step() != (len(model) > 0) {
					return false
				}
				if len(model) > 0 {
					now = model[0].at
					want = append(want, model[0].id)
					model = model[1:]
				}
				if e.Now() != now {
					return false
				}
			}
			if e.Pending() != len(model) {
				return false
			}
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if got := tm.Add(500 * time.Millisecond); got != Time(2*time.Second) {
		t.Errorf("Add = %v, want 2s", got)
	}
	if got := tm.Sub(Time(time.Second)); got != 500*time.Millisecond {
		t.Errorf("Sub = %v, want 500ms", got)
	}
	if got := tm.Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := tm.Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration = %v, want 1.5s", got)
	}
	if got := tm.String(); got != "1.5s" {
		t.Errorf("String = %q, want 1.5s", got)
	}
}
