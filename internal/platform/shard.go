package platform

import (
	"time"

	"faasbatch/internal/dispatch"
	"faasbatch/internal/multiplex"
)

// shard is one function's scheduling state and every decision over it:
// the Invoke Mapper's window (enqueue, close, claim) and the
// Inline-Parallel Producer's container choice (warm reuse, park,
// keep-alive expiry). Like dispatch, pullsched and node it is a
// clock-agnostic, single-threaded core: the caller holds the function's
// mu, passes every instant as an offset from the platform's epoch, and
// carries out what each method returns — a group to dispatch, a deadline
// to arm a timer at, containers to retire, calls to drop. A returned slice
// aliases the shard's memory and is used up before mu is released.
type shard struct {
	name      string
	keepAlive time.Duration
	ctrl      *dispatch.Controller

	// pending holds the calls waiting for the open window, which closes
	// at deadline, the controller's. A deadline is positive (a tick, or
	// an arrival plus a positive window), so zero means no window is
	// open, and between steps that is exactly when pending is empty.
	pending  []*pendingCall
	deadline time.Duration

	// warm is the stack of parked containers in park order: the newest
	// is reused first, warm[0] expires first. all holds busy ones too.
	// expiry is the deadline the expire timer is armed for, zero while it
	// is disarmed, which only an evict that empties warm does.
	warm, all []*container
	expiry    time.Duration

	// Scratch for what a method returns.
	dropped []*pendingCall
	retired []*container
}

// container is a live worker: a logical container backed by goroutines.
type container struct {
	id string
	// cache is its Resource Multiplexer (nil without multiplexing).
	cache *multiplex.Cache
	// active counts the group members it hosts; idleAt is when it last
	// parked.
	active int
	idleAt time.Duration
}

// callState is a pendingCall's side of the claim handshake (see
// pendingCall.state).
type callState uint8

const (
	callWaiting callState = iota
	callClaimed
	callAbandoned
)

// event names what brings the shard to a window decision.
type event uint8

const (
	evArrive event = iota // a new call, which feeds the rate estimate
	evRetry               // a failed call re-entering, which does not
	evDue                 // the window timer firing
	evFlush               // Close, or a retry re-entering a closing platform
)

// outcome is what one step asks of its caller.
type outcome struct {
	// group is a closed window's claimed calls in arrival order, and
	// dropped the calls its claim found abandoned.
	group, dropped []*pendingCall
	// action and window are the controller's decision.
	action dispatch.Action
	window time.Duration
	// arm is the deadline to arm the window timer at (zero: leave it);
	// disarm stops it, its window having closed.
	arm    time.Duration
	disarm bool
}

// step is the shard's one window transition, ev at offset now: every
// window opens and closes here, whoever asked. call is the arriving or
// re-entering call, nil for a timer firing or the Close flush.
func (s *shard) step(ev event, call *pendingCall, now time.Duration) outcome {
	var d dispatch.Decision
	switch ev {
	case evArrive:
		// The idle probe scans the containers, so it runs only when the
		// policy reads the answer: not under the fixed policy, and not
		// with groups of one, which close before idle matters.
		idle := s.ctrl.UsesIdle() && len(s.pending) == 0 && !s.busy()
		s.enqueue(call)
		d = s.ctrl.Arrive(s.name, now, idle)
	case evRetry:
		call.state = callWaiting
		s.enqueue(call)
		d = s.ctrl.EnsureOpen(s.name, now)
	case evDue:
		if s.deadline == 0 {
			return outcome{} // the window already closed
		}
		if s.deadline > now {
			// The controller extended the deadline since the timer armed.
			return outcome{arm: s.deadline}
		}
		d = s.ctrl.WindowClosed(s.name)
	case evFlush:
		if call != nil {
			call.state = callWaiting
			s.enqueue(call)
		}
		if len(s.pending) == 0 {
			return outcome{}
		}
		d = s.ctrl.WindowClosed(s.name)
	}
	o := outcome{action: d.Action, window: d.Window}
	if d.Action == dispatch.ActionWait {
		// The controller may extend an open window's deadline as the
		// arrival estimate densifies; the timer armed at the first one
		// re-arms when it fires early (evDue).
		if s.deadline == 0 {
			o.arm = d.Deadline
		}
		s.deadline = d.Deadline
		return o
	}
	o.disarm, s.deadline = s.deadline != 0, 0
	// The claim: each waiting call moves to claimed, its caller owed one
	// ticket, and each call whose caller walked away while it waited is
	// dropped, since running it would burn a batch slot for nobody. The
	// group is compacted in place in pending's array.
	s.dropped = s.dropped[:0]
	n := 0
	for _, c := range s.pending {
		if c.state == callAbandoned {
			s.dropped = append(s.dropped, c)
			continue
		}
		c.state = callClaimed
		s.pending[n] = c
		n++
	}
	clear(s.pending[n:])
	o.group, o.dropped, s.pending = s.pending[:n], s.dropped, s.pending[:0]
	return o
}

// enqueue appends a call to the pending queue, sizing the backing array
// from the controller's group estimate on first use so the steady state
// appends without growing.
func (s *shard) enqueue(call *pendingCall) {
	if s.pending == nil {
		s.pending = make([]*pendingCall, 0, max(8, s.ctrl.ExpectedGroup(s.name)))
	}
	s.pending = append(s.pending, call)
}

// busy reports whether any container is executing — a batching
// opportunity an arrival could wait to share.
func (s *shard) busy() bool {
	for _, c := range s.all {
		if c.active > 0 {
			return true
		}
	}
	return false
}

// reuse pops the most recently parked container to host a group of n,
// or returns nil when none is parked.
func (s *shard) reuse(n int) *container {
	last := len(s.warm) - 1
	if last < 0 {
		return nil
	}
	c := s.warm[last]
	s.warm[last] = nil
	s.warm = s.warm[:last]
	c.active += n
	return c
}

// add records a newly booted container hosting a group of n.
func (s *shard) add(c *container, n int) {
	c.active = n
	s.all = append(s.all, c)
}

// park returns n members' share of c, which parks warm at now once it
// drains. It returns the deadline to arm the expire timer at when the
// timer was disarmed — warm was empty, so c is warm[0] — and zero
// otherwise.
func (s *shard) park(c *container, n int, now time.Duration) time.Duration {
	if c.active -= n; c.active > 0 {
		return 0
	}
	c.active, c.idleAt = 0, now
	s.warm = append(s.warm, c)
	if s.expiry != 0 {
		return 0
	}
	s.expiry = now + s.keepAlive
	return s.expiry
}

// evict retires the containers parked keepAlive or longer by now, a
// prefix of the warm stack, and returns them with the deadline to re-arm
// the expire timer at: the new warm[0]'s, or zero when warm emptied.
func (s *shard) evict(now time.Duration) (retired []*container, next time.Duration) {
	s.retired = s.retired[:0]
	n := 0
	for ; n < len(s.warm) && s.warm[n].idleAt+s.keepAlive <= now; n++ {
		s.retired = append(s.retired, s.warm[n])
		s.remove(s.warm[n])
	}
	kept := copy(s.warm, s.warm[n:])
	clear(s.warm[kept:])
	s.warm = s.warm[:kept]
	s.expiry = 0
	if kept > 0 {
		s.expiry = s.warm[0].idleAt + s.keepAlive
	}
	return s.retired, s.expiry
}

// remove forgets a container that will host nothing again: evicted, or
// lost to a crash with its group.
func (s *shard) remove(c *container) {
	c.active = 0
	for i, other := range s.all {
		if other == c {
			s.all = append(s.all[:i], s.all[i+1:]...)
			return
		}
	}
}
