// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event. All model code
// (CPU pools, containers, schedulers) runs inside event callbacks, so a whole
// experiment executes in a single goroutine and is reproducible for a given
// seed. Virtual time is completely decoupled from the wall clock: replaying
// one minute of an Azure trace takes milliseconds of real time.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as an offset from the simulation
// epoch (the instant the engine was created).
type Time time.Duration

// Add returns the timestamp d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier timestamp o.
func (t Time) Sub(o Time) time.Duration { return time.Duration(t - o) }

// Seconds reports t as a floating-point number of seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts t to the duration elapsed since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t as a duration offset, e.g. "1.2s".
func (t Time) String() string { return time.Duration(t).String() }

// Engine is a single-threaded discrete-event simulator.
//
// Engine is not safe for concurrent use; all interaction must happen from
// the goroutine driving Run (which includes all event callbacks).
type Engine struct {
	now   Time
	queue []slot // 4-ary min-heap on (at, seq)
	seq   uint64
	rng   *rand.Rand
	// free lists the engine's own one-shot timers (Schedule, ScheduleAt)
	// that fired or were dropped by Reset, linked through Timer.next.
	free *Timer
}

// slot is one heap entry. The ordering key sits beside the pointer so a
// sift compares siblings without touching the timers themselves.
type slot struct {
	at  Time
	seq uint64
	t   *Timer
}

// before orders slots by (time, sequence): FIFO among events scheduled for
// the same instant.
func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the heap's branching factor: four children share at most
// two cache lines, and the tree is half as deep as a binary one.
const heapArity = 4

// New returns an engine whose clock starts at zero, with a deterministic
// random source derived from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Grow ensures the event heap has capacity for at least n more scheduled
// events without reallocating. The heap holds live events only — armed
// timers and one-shots yet to fire, nothing cancelled — so n is a bound on
// what the model has in flight at once, not on the length of the run.
func (e *Engine) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(e.queue) - len(e.queue); free < n {
		grown := make([]slot, len(e.queue), len(e.queue)+n)
		copy(grown, e.queue)
		e.queue = grown
	}
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, sequence cleared, random source reseeded — while
// retaining the event heap's backing array and the recycled one-shots.
// Every armed Timer is detached (Active reports false afterwards), so a
// Stop or Reset on a timer armed before the engine's Reset cannot reach
// into the next run's heap. A runner that replays the same scenario
// repeatedly (determinism verification, seed sweeps) can reuse one engine
// instead of re-growing a fresh heap every run.
func (e *Engine) Reset(seed int64) {
	for i, s := range e.queue {
		s.t.pos = 0
		if s.t.oneShot {
			e.release(s.t)
		}
		e.queue[i] = slot{}
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.rng = rand.New(rand.NewSource(seed))
}

// Deadline is a place in the engine's event order: a virtual time, and
// the sequence number that orders it among events due at that instant.
type Deadline struct {
	at  Time
	seq uint64
}

// Reserve returns the deadline an event scheduled now to fire after d
// (d >= 0) would take, consuming its sequence number but queuing nothing.
// A Timer armed at it later (ResetTo) fires exactly where that event
// would have. An owner of many would-be timers of which only the earliest
// can be due next — entries that all wait one fixed delay, in arrival
// order — keeps one Timer and their deadlines.
func (e *Engine) Reserve(d time.Duration) Deadline {
	e.seq++
	return Deadline{at: e.now.Add(d), seq: e.seq}
}

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending reports how many events are currently scheduled. A stopped or
// re-armed timer leaves nothing behind, so every one of them will fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn once after delay d of virtual time. A negative delay is
// clamped to zero (the event fires "now", after currently running events).
// The event cannot be cancelled: work that may be called off belongs on a
// Timer its caller owns.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn once at virtual time t. A time in the past is clamped
// to the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	n := e.free
	if n == nil {
		n = &Timer{eng: e, oneShot: true}
	} else {
		e.free = n.next
		n.next = nil
		n.freed = false
	}
	n.fn = fn
	n.ResetAt(t)
}

// release returns a one-shot that fired (or was dropped by Reset) to the
// free list.
func (e *Engine) release(t *Timer) {
	if poison {
		if t.freed {
			panic(fmt.Sprintf("sim: one-shot freed twice (last at %v, seq %d)", t.at, t.seq))
		}
		t.freed = true
	}
	t.fn = nil
	t.next = e.free
	e.free = t
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired (false when the queue is empty).
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	t := e.queue[0].t
	if poison && t.freed {
		panic(fmt.Sprintf("sim: firing a recycled one-shot (last at %v, seq %d)", t.at, t.seq))
	}
	e.remove(0)
	e.now = t.at
	fn := t.fn
	if t.oneShot {
		// Recycled before it runs: whatever fn schedules may reuse it.
		e.release(t)
	}
	fn()
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// place writes s at heap index i and tells its timer where it now sits.
func (e *Engine) place(i int, s slot) {
	e.queue[i] = s
	s.t.pos = i + 1
}

// up sifts the slot at index i towards the root.
func (e *Engine) up(i int) {
	s := e.queue[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !s.before(e.queue[parent]) {
			break
		}
		e.place(i, e.queue[parent])
		i = parent
	}
	e.place(i, s)
}

// down sifts the slot at index i towards the leaves.
func (e *Engine) down(i int) {
	s := e.queue[i]
	n := len(e.queue)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least, end := first, min(first+heapArity, n)
		for c := first + 1; c < end; c++ {
			if e.queue[c].before(e.queue[least]) {
				least = c
			}
		}
		if !e.queue[least].before(s) {
			break
		}
		e.place(i, e.queue[least])
		i = least
	}
	e.place(i, s)
}

// fix restores heap order after the key at index i changed.
func (e *Engine) fix(i int) {
	if i > 0 && e.queue[i].before(e.queue[(i-1)/heapArity]) {
		e.up(i)
		return
	}
	e.down(i)
}

// remove takes the slot at index i out of the heap and marks its timer
// idle.
func (e *Engine) remove(i int) {
	e.queue[i].t.pos = 0
	last := len(e.queue) - 1
	moved := e.queue[last]
	e.queue[last] = slot{}
	e.queue = e.queue[:last]
	if i < last {
		e.queue[i] = moved
		e.fix(i)
	}
}

// Timer is an event its caller owns: embed it by value in whatever waits
// on it, bind it once with Init, then arm, move and call it off as often
// as needed. Because the owner holds the timer itself rather than a handle
// to a queued event, nothing it holds can outlive a firing and name
// somebody else's event. The zero Timer is idle.
type Timer struct {
	eng *Engine
	fn  func()
	at  Time
	seq uint64
	pos int // heap index + 1; 0 while idle

	// The engine's own one-shots are Timers too, recycled through next.
	next    *Timer
	oneShot bool
	freed   bool // on the free list (checked under the race build only)
}

// Init binds the timer to its engine and callback. It must be called
// before any other method, while the timer is idle.
func (t *Timer) Init(eng *Engine, fn func()) {
	if t.pos != 0 {
		panic("sim: Init on an armed timer")
	}
	t.eng, t.fn = eng, fn
}

// Active reports whether the timer is armed and yet to fire. A timer is
// idle again by the time its callback runs.
func (t *Timer) Active() bool { return t.pos != 0 }

// At reports the virtual time an armed timer fires (the last such time
// once it is idle).
func (t *Timer) At() Time { return t.at }

// Reset arms the timer to fire after delay d (a negative delay is clamped
// to zero), moving it if it was already armed.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.eng.now.Add(d))
}

// ResetAt arms the timer to fire at virtual time at (a time in the past is
// clamped to now), moving it in place if it was already armed. Either way
// it takes a fresh sequence number — the one a newly scheduled event would
// have taken — so a re-armed timer fires after everything already queued
// for the same instant.
func (t *Timer) ResetAt(at Time) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	e.seq++
	t.arm(Deadline{at: at, seq: e.seq})
}

// ResetTo arms the timer at a deadline reserved earlier (Engine.Reserve),
// keeping the deadline's sequence number: the timer fires exactly where
// the event scheduled at the reservation would have, ahead of whatever
// was queued for the same instant since. A deadline the clock has already
// passed is a bug; the race build panics on one.
func (t *Timer) ResetTo(d Deadline) {
	if poison && d.at < t.eng.now {
		panic(fmt.Sprintf("sim: timer armed at %v (seq %d), behind the clock at %v", d.at, d.seq, t.eng.now))
	}
	t.arm(d)
}

// arm queues the timer at d, or moves it there if it was already armed.
func (t *Timer) arm(d Deadline) {
	e := t.eng
	if poison && t.freed {
		panic(fmt.Sprintf("sim: queuing a recycled one-shot (last at %v, seq %d)", t.at, t.seq))
	}
	t.at, t.seq = d.at, d.seq
	s := slot{at: d.at, seq: d.seq, t: t}
	if t.pos != 0 {
		i := t.pos - 1
		e.queue[i] = s
		e.fix(i)
		return
	}
	e.queue = append(e.queue, s)
	e.up(len(e.queue) - 1)
}

// Stop calls an armed timer off, removing it from the heap, and reports
// whether it was armed. Stop on an idle timer — one that fired, was never
// armed, or was detached by Engine.Reset — does nothing.
func (t *Timer) Stop() bool {
	if t.pos == 0 {
		return false
	}
	t.eng.remove(t.pos - 1)
	return true
}

// Ticker invokes fn every period of virtual time until stopped.
type Ticker struct {
	timer   Timer
	period  time.Duration
	fn      func(Time)
	stopped bool
}

// NewTicker schedules fn to run every period, starting one period from now.
// It returns an error if period is not positive.
func NewTicker(eng *Engine, period time.Duration, fn func(Time)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period must be positive, got %v", period)
	}
	t := &Ticker{period: period, fn: fn}
	t.timer.Init(eng, t.tick)
	t.timer.Reset(period)
	return t, nil
}

func (t *Ticker) tick() {
	t.fn(t.timer.eng.now)
	if !t.stopped {
		t.timer.Reset(t.period)
	}
}

// Stop cancels future ticks. Stop is idempotent and legal from inside the
// tick.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
