package platform

import (
	"slices"
	"testing"
	"time"

	"faasbatch/internal/dispatch"
)

// The shard core alone, on virtual offsets: no Platform, no goroutine,
// no sleep.

func newTestShard(t *testing.T, cfg dispatch.Config, keepAlive time.Duration) *shard {
	t.Helper()
	ctrl, err := dispatch.New(cfg)
	if err != nil {
		t.Fatalf("dispatch.New: %v", err)
	}
	return &shard{name: "f", keepAlive: keepAlive, ctrl: ctrl}
}

func calls(n int) []*pendingCall {
	out := make([]*pendingCall, n)
	for i := range out {
		out[i] = &pendingCall{}
	}
	return out
}

// A fixed-policy arrival waits for its tick boundary; the window-due step
// at that offset returns the group with every waiting call claimed.
func TestShardFixedWindowClosesAtTick(t *testing.T) {
	const tick = 100 * time.Millisecond
	s := newTestShard(t, dispatch.ConfigFor(false, tick, dispatch.Config{}), time.Second)
	cs := calls(2)
	o := s.step(evArrive, cs[0], 10*time.Millisecond)
	if o.action != dispatch.ActionWait || o.arm != tick || len(o.group) != 0 {
		t.Fatalf("first arrival = %+v, want a wait arming the timer at %v", o, tick)
	}
	if o = s.step(evArrive, cs[1], 30*time.Millisecond); o.arm != 0 || len(o.group) != 0 {
		t.Fatalf("second arrival = %+v, want to join the armed window", o)
	}
	if o = s.step(evDue, nil, 60*time.Millisecond); o.arm != tick || len(o.group) != 0 {
		t.Fatalf("early firing = %+v, want a re-arm at %v", o, tick)
	}
	o = s.step(evDue, nil, tick)
	if o.action != dispatch.ActionWindowClose || !o.disarm || !slices.Equal(o.group, cs) {
		t.Fatalf("due step = %+v, want both calls as a window close", o)
	}
	for i, c := range cs {
		if c.state != callClaimed {
			t.Errorf("call %d state = %d, want claimed", i, c.state)
		}
	}
	if s.deadline != 0 || len(s.pending) != 0 {
		t.Fatalf("after the close: deadline %v, %d pending", s.deadline, len(s.pending))
	}
	if o = s.step(evDue, nil, tick); len(o.group) != 0 || o.arm != 0 {
		t.Fatalf("stale firing = %+v, want nothing", o)
	}
}

// A call abandoned before the close is dropped at the claim and reported
// once.
func TestShardAbandonedCallDroppedOnce(t *testing.T) {
	s := newTestShard(t, dispatch.ConfigFor(false, 100*time.Millisecond, dispatch.Config{}), time.Second)
	cs := calls(2)
	s.step(evArrive, cs[0], 0)
	s.step(evArrive, cs[1], time.Millisecond)
	cs[1].state = callAbandoned
	o := s.step(evDue, nil, 100*time.Millisecond)
	if !slices.Equal(o.group, cs[:1]) || !slices.Equal(o.dropped, cs[1:]) {
		t.Fatalf("claim = group %v dropped %v, want the first claimed and the second dropped", o.group, o.dropped)
	}
	s.step(evArrive, calls(1)[0], 150*time.Millisecond)
	if o = s.step(evFlush, nil, 160*time.Millisecond); len(o.dropped) != 0 || len(o.group) != 1 {
		t.Fatalf("next close = %+v, want one call and no drop", o)
	}
}

// Containers parked at 0, 10 and 20 ms with a 100 ms keep-alive: an
// evict at 105 ms retires exactly the first and re-arms at 110 ms.
func TestShardKeepAliveEvictsPrefix(t *testing.T) {
	const keepAlive = 100 * time.Millisecond
	s := newTestShard(t, dispatch.ConfigFor(false, time.Second, dispatch.Config{}), keepAlive)
	cs := []*container{{id: "a"}, {id: "b"}, {id: "c"}}
	for i, c := range cs {
		s.add(c, 1)
		at := time.Duration(i) * 10 * time.Millisecond
		want := time.Duration(0)
		if i == 0 {
			want = keepAlive
		}
		if got := s.park(c, 1, at); got != want {
			t.Fatalf("park %s at %v armed %v, want %v", c.id, at, got, want)
		}
	}
	retired, next := s.evict(105 * time.Millisecond)
	if !slices.Equal(retired, cs[:1]) || next != 110*time.Millisecond {
		t.Fatalf("evict = %v next %v, want [a] next 110ms", retired, next)
	}
	if !slices.Equal(s.warm, cs[1:]) || !slices.Equal(s.all, cs[1:]) {
		t.Fatalf("after evict: warm %v all %v, want [b c]", s.warm, s.all)
	}
	if c := s.reuse(2); c != cs[2] || c.active != 2 {
		t.Fatalf("reuse = %v, want the newest parked container hosting 2", c)
	}
	if retired, next = s.evict(time.Second); !slices.Equal(retired, cs[1:2]) || next != 0 || s.expiry != 0 {
		t.Fatalf("evict = %v next %v, want [b] and the timer disarmed", retired, next)
	}
}

// A retry re-entry opens or joins a window through EnsureOpen and does
// not feed the arrival-rate estimate.
func TestShardRetryRidesWindowWithoutEstimate(t *testing.T) {
	cfg := dispatch.ConfigFor(true, 100*time.Millisecond, dispatch.Config{MinInterval: 10 * time.Millisecond})
	s := newTestShard(t, cfg, time.Second)
	cs := calls(3)
	o := s.step(evRetry, cs[0], 0)
	if o.action != dispatch.ActionWait || o.arm != 10*time.Millisecond {
		t.Fatalf("retry = %+v, want a window opened until 10ms", o)
	}
	if o = s.step(evRetry, cs[1], time.Millisecond); o.action != dispatch.ActionWait || o.arm != 0 || s.deadline != 10*time.Millisecond {
		t.Fatalf("second retry = %+v, want to join the open window", o)
	}
	if got := s.ctrl.ExpectedGroup(s.name); got != 1 {
		t.Fatalf("ExpectedGroup = %d after two retries, want 1: retries fed the estimate", got)
	}
	if o = s.step(evDue, nil, 10*time.Millisecond); !slices.Equal(o.group, cs[:2]) {
		t.Fatalf("due = %+v, want both retries", o)
	}
	// Unprimed and with nothing busy, a lone arrival still takes the fast
	// path, as it would had the retries never happened.
	if o = s.step(evArrive, cs[2], 20*time.Millisecond); o.action != dispatch.ActionFastPath {
		t.Fatalf("arrival after retries = %v, want fast-path", o.action)
	}
}

// The Close flush returns the open window's group and leaves no deadline.
func TestShardFlushClosesOpenWindow(t *testing.T) {
	s := newTestShard(t, dispatch.ConfigFor(false, 100*time.Millisecond, dispatch.Config{}), time.Second)
	cs := calls(1)
	s.step(evArrive, cs[0], 5*time.Millisecond)
	o := s.step(evFlush, nil, 6*time.Millisecond)
	if o.action != dispatch.ActionWindowClose || !o.disarm || !slices.Equal(o.group, cs) {
		t.Fatalf("flush = %+v, want the open window's group", o)
	}
	if s.deadline != 0 {
		t.Fatalf("deadline = %v after the flush, want none", s.deadline)
	}
	if o = s.step(evFlush, nil, 7*time.Millisecond); len(o.group) != 0 || o.disarm {
		t.Fatalf("second flush = %+v, want nothing", o)
	}
	// A retry re-entering a closing platform is flushed on its own.
	retry := &pendingCall{state: callClaimed}
	if o = s.step(evFlush, retry, 8*time.Millisecond); !slices.Equal(o.group, []*pendingCall{retry}) || o.disarm {
		t.Fatalf("retry flush = %+v, want the retry alone", o)
	}
}
