package dispatch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/sim"
)

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{MinInterval: -1, MaxInterval: time.Second},
		{MinInterval: 0, MaxInterval: 0},
		{MinInterval: time.Second, MaxInterval: time.Millisecond},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := New(Config{MaxInterval: time.Second}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestFirstLoneArrivalFastPaths(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	d := c.Arrive("f", 0, true)
	if d.Action != ActionFastPath {
		t.Fatalf("lone idle arrival: action = %v, want fast-path", d.Action)
	}
	if st := c.fns["f"]; st != nil && st.pending != 0 {
		t.Fatalf("pending = %d after fast path, want 0", st.pending)
	}
}

func TestBusyArrivalWaits(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	d := c.Arrive("f", 0, false)
	if d.Action != ActionWait {
		t.Fatalf("non-idle arrival: action = %v, want wait", d.Action)
	}
	if d.Deadline != time.Duration(0)+d.Window {
		t.Fatalf("deadline = %v, want first arrival + window %v", d.Deadline, d.Window)
	}
}

func TestDenseArrivalsGrowTheWindow(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	// 2 ms gaps: ~100 expected arrivals per cap — window ≈ cap.
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		c.Arrive("f", now, false)
		now += 2 * time.Millisecond
	}
	if w := c.Window("f"); w < 150*time.Millisecond {
		t.Fatalf("dense window = %v, want near the 200ms cap", w)
	}
	// A dense lone arrival must NOT fast-path: the next request is near.
	c.WindowClosed("f")
	if d := c.Arrive("f", now, true); d.Action != ActionWait {
		t.Fatalf("dense idle arrival: action = %v, want wait", d.Action)
	}
}

func TestSparseArrivalsShrinkTheWindow(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := c.Arrive("f", now, true)
		if d.Action != ActionFastPath {
			t.Fatalf("sparse idle arrival %d: action = %v, want fast-path", i, d.Action)
		}
		now += 2 * time.Second
	}
	if w := c.Window("f"); w > 25*time.Millisecond {
		t.Fatalf("sparse window = %v, want near the 1ms floor", w)
	}
}

func TestIdleGapResetsRateEstimate(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	now := time.Duration(0)
	// Steady traffic primes the estimate.
	for i := 0; i < 10; i++ {
		c.Arrive("f", now, false)
		now += 50 * time.Millisecond
	}
	c.WindowClosed("f")
	// A long quiet spell (say the autoscaler retired the fleet), then a
	// burst. The first post-idle arrival is genuinely alone and must
	// still fast-path.
	now += 30 * time.Second
	if d := c.Arrive("f", now, true); d.Action != ActionFastPath {
		t.Fatalf("first post-idle arrival: action = %v, want fast-path", d.Action)
	}
	// The burst's second arrival must batch immediately: the idle gap
	// was discarded rather than folded in, so the 2ms burst gap IS the
	// estimate — not a 30s outlier that would keep every head-of-burst
	// arrival fast-pathing individually while it averaged down.
	now += 2 * time.Millisecond
	if d := c.Arrive("f", now, true); d.Action != ActionWait {
		t.Fatalf("second burst arrival: action = %v, want wait (batched)", d.Action)
	}
	if w := c.Window("f"); w < 150*time.Millisecond {
		t.Fatalf("post-burst window = %v, want near the 200ms cap", w)
	}
	// A gap below the reset threshold still feeds the estimate: the
	// window shrinks from the cap instead of snapping back to the floor.
	c.WindowClosed("f")
	now += time.Second
	c.Arrive("f", now, false)
	if w := c.Window("f"); w >= 150*time.Millisecond || w <= time.Millisecond {
		t.Fatalf("sub-threshold gap window = %v, want between floor and cap", w)
	}
}

func TestEarlyCloseAtMaxGroupSize(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond, MaxGroupSize: 4})
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if d := c.Arrive("f", now, false); d.Action != ActionWait {
			t.Fatalf("arrival %d: action = %v, want wait", i, d.Action)
		}
		now += time.Millisecond
	}
	if d := c.Arrive("f", now, false); d.Action != ActionEarlyClose {
		t.Fatalf("4th arrival: action = %v, want early-close", d.Action)
	}
	if st := c.fns["f"]; st != nil && st.pending != 0 {
		t.Fatalf("pending = %d after early close, want 0", st.pending)
	}
}

// TestUsesIdleOnlyWhenArriveReadsIt: a driver skips the idle probe when
// UsesIdle is false, so it must be false exactly where Arrive's decision
// cannot depend on idle — the fixed policy, and groups of one, which
// early-close before the fast path is considered.
func TestUsesIdleOnlyWhenArriveReadsIt(t *testing.T) {
	adaptive := func(group int) Config {
		return ConfigFor(true, 50*time.Millisecond, Config{MaxGroupSize: group})
	}
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"fixed", ConfigFor(false, 50*time.Millisecond, Config{}), false},
		{"adaptive unbounded", adaptive(0), true},
		{"adaptive groups of 4", adaptive(4), true},
		{"adaptive groups of 1", adaptive(1), false},
	}
	for _, tc := range cases {
		idle, busy := newController(t, tc.cfg), newController(t, tc.cfg)
		if got := idle.UsesIdle(); got != tc.want {
			t.Errorf("%s: UsesIdle = %v, want %v", tc.name, got, tc.want)
		}
		if tc.want {
			continue
		}
		// Where idle is unread, it must not move a single decision.
		for i := 0; i < 5; i++ {
			now := time.Duration(i) * time.Second
			if a, b := idle.Arrive("f", now, true), busy.Arrive("f", now, false); a != b {
				t.Errorf("%s: arrival %d decides %+v when idle, %+v when busy", tc.name, i, a, b)
			}
		}
	}
}

func TestWindowDeadlineAnchoredAtFirstArrival(t *testing.T) {
	c := newController(t, Config{MinInterval: 50 * time.Millisecond, MaxInterval: 50 * time.Millisecond})
	d1 := c.Arrive("f", 0, false)
	d2 := c.Arrive("f", 10*time.Millisecond, false)
	if d1.Deadline != d2.Deadline {
		t.Fatalf("joining arrival moved the deadline: %v -> %v", d1.Deadline, d2.Deadline)
	}
}

func TestEnsureOpenDoesNotSkewRate(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	// Prime a sparse estimate.
	c.Arrive("f", 0, false)
	c.Arrive("f", 2*time.Second, false)
	c.WindowClosed("f")
	before := c.Window("f")
	d := c.EnsureOpen("f", 3*time.Second)
	if d.Action != ActionWait {
		t.Fatalf("EnsureOpen action = %v, want wait", d.Action)
	}
	// A burst of retries must leave the arrival-rate estimate alone.
	for i := 0; i < 10; i++ {
		c.EnsureOpen("f", 3*time.Second)
	}
	c.WindowClosed("f")
	c.Arrive("f", 5*time.Second, false)
	if after := c.Window("f"); after > before*2 {
		t.Fatalf("retries skewed the window: %v -> %v", before, after)
	}
}

// TestPropertyWindowWithinBounds: whatever the arrival sequence and the
// policy, the chosen interval stays inside [MinInterval, MaxInterval] and
// a held arrival's deadline inside one MaxInterval. The fixed policy, on
// top, holds every arrival (idle or not) for a boundary of its tick, and
// an arrival on a boundary closes at that boundary.
func TestPropertyWindowWithinBounds(t *testing.T) {
	const interval = 200 * time.Millisecond
	prop := func(seed int64, fixed bool, gapsMicros []uint32) bool {
		cfg := Config{MinInterval: 2 * time.Millisecond, MaxInterval: interval, MaxGroupSize: 8}
		if fixed {
			cfg = ConfigFor(false, interval, cfg)
		}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		deadline := time.Duration(-1)
		for _, g := range gapsMicros {
			// A quarter of the arrivals land exactly on a tick boundary.
			if now += time.Duration(g%2_000_000) * time.Microsecond; g%4 == 0 {
				now = (now/interval + 1) * interval
			}
			// Close a due window the way a caller's timer would.
			if deadline >= 0 && now >= deadline {
				c.WindowClosed("f")
				deadline = -1
			}
			opens := deadline < 0
			d := c.Arrive("f", now, rng.Intn(2) == 0)
			if d.Window < cfg.MinInterval || d.Window > cfg.MaxInterval {
				return false
			}
			if fixed {
				onTick := d.Deadline >= interval && d.Deadline%interval == 0
				if d.Action != ActionWait || !onTick {
					return false
				}
				if opens && now%interval == 0 && now > 0 && d.Deadline != now {
					return false
				}
			}
			switch d.Action {
			case ActionWait:
				if d.Deadline < now || d.Deadline > now+cfg.MaxInterval {
					return false
				}
				deadline = d.Deadline
			default:
				deadline = -1
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWindowMonotoneInRate: a faster constant arrival process
// never yields a smaller steady-state window than a slower one.
func TestPropertyWindowMonotoneInRate(t *testing.T) {
	steady := func(gap time.Duration) time.Duration {
		c, err := New(Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		now := time.Duration(0)
		for i := 0; i < 64; i++ {
			c.Arrive("f", now, false)
			c.WindowClosed("f")
			now += gap
		}
		return c.Window("f")
	}
	prop := func(a, b uint32) bool {
		gapA := time.Duration(1+a%5_000_000) * time.Microsecond
		gapB := time.Duration(1+b%5_000_000) * time.Microsecond
		if gapA > gapB {
			gapA, gapB = gapB, gapA
		}
		// gapA <= gapB: the faster process (gapA) must choose a window at
		// least as large as the slower one.
		return steady(gapA) >= steady(gapB)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEarlyCloseBoundsGroups: simulating the caller's queue, no
// dispatched group ever exceeds MaxGroupSize.
func TestPropertyEarlyCloseBoundsGroups(t *testing.T) {
	prop := func(seed int64, n uint8, maxGroup uint8) bool {
		cap := int(maxGroup%16) + 1
		c, err := New(Config{MinInterval: time.Millisecond, MaxInterval: 100 * time.Millisecond, MaxGroupSize: cap})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		queue := 0
		deadline := time.Duration(-1)
		for i := 0; i < int(n); i++ {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			// Close a due window the way a caller would.
			if deadline >= 0 && now >= deadline {
				c.WindowClosed("f")
				queue = 0
				deadline = -1
			}
			queue++
			d := c.Arrive("f", now, queue == 1 && rng.Intn(2) == 0)
			switch d.Action {
			case ActionFastPath, ActionEarlyClose:
				if queue > cap {
					return false
				}
				queue = 0
				deadline = -1
			case ActionWait:
				if queue >= cap {
					// The controller must have early-closed at the cap.
					return false
				}
				deadline = d.Deadline
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSimVsManualConformance drives the same arrival schedule through the
// controller twice — once from discrete-event simulator callbacks on the
// virtual clock, once from a plain loop doing duration arithmetic the way
// the live platform's wall-clock dispatcher does — and requires identical
// decision sequences, window closes included, under both policies. This
// is the clock-agnostic guarantee: sim and live share one state machine,
// not two reimplementations. Arrivals at a deadline's own instant precede
// the close in both drives, so a fixed-policy arrival on a tick boundary
// leaves with the window that boundary closes; windows that share a
// deadline (every window of a fixed tick) close in name order, which the
// sim drive gets from AppendClosing.
func TestSimVsManualConformance(t *testing.T) {
	adaptive := Config{MinInterval: 2 * time.Millisecond, MaxInterval: 150 * time.Millisecond, MaxGroupSize: 6}
	policies := map[string]Config{
		"adaptive": adaptive,
		"fixed":    ConfigFor(false, adaptive.MaxInterval, adaptive),
	}
	rng := rand.New(rand.NewSource(42))
	type arrival struct {
		fn   string
		at   time.Duration
		idle bool
	}
	var schedule []arrival
	now := time.Duration(0)
	fns := []string{"a", "b"}
	for i := 0; i < 200; i++ {
		now += time.Duration(rng.Intn(30)) * time.Millisecond
		schedule = append(schedule, arrival{fn: fns[rng.Intn(len(fns))], at: now, idle: rng.Intn(3) == 0})
	}
	end := now + adaptive.MaxInterval

	record := func(fn string, d Decision) string {
		return fn + "/" + d.Action.String() + "/" + d.Deadline.String() + "/" + d.Window.String()
	}

	for name, cfg := range policies {
		t.Run(name, func(t *testing.T) {
			// Manual (live-style) drive: before each arrival, close the
			// windows whose deadline has passed, earliest first.
			manual := newController(t, cfg)
			var manualLog []string
			open := map[string]time.Duration{}
			closeBefore := func(now time.Duration) {
				for len(open) > 0 {
					due := ""
					for _, fn := range fns {
						if d, ok := open[fn]; ok && d < now && (due == "" || d < open[due]) {
							due = fn
						}
					}
					if due == "" {
						return
					}
					delete(open, due)
					manualLog = append(manualLog, record(due, manual.WindowClosed(due)))
				}
			}
			apply := func(log *[]string, open map[string]time.Duration, fn string, d Decision) {
				*log = append(*log, record(fn, d))
				if d.Action == ActionWait {
					open[fn] = d.Deadline
				} else {
					delete(open, fn)
				}
			}
			for _, a := range schedule {
				closeBefore(a.at)
				apply(&manualLog, open, a.fn, manual.Arrive(a.fn, a.at, a.idle))
			}
			closeBefore(end + 1)

			// Sim drive: arrivals and window closes are engine events.
			eng := sim.New(1)
			simCtrl := newController(t, cfg)
			var simLog []string
			simOpen := map[string]time.Duration{}
			// One timer per function, as the simulator's scheduler keeps.
			timers := map[string]*sim.Timer{}
			var timerFor func(fn string) *sim.Timer
			timerFor = func(fn string) *sim.Timer {
				if tm := timers[fn]; tm != nil {
					return tm
				}
				tm := new(sim.Timer)
				tm.Init(eng, func() {
					// As the simulator's scheduler does: the policy says
					// which windows this deadline closes, and in which
					// order.
					for _, due := range simCtrl.AppendClosing(nil, fn) {
						if _, ok := simOpen[due]; !ok {
							continue
						}
						delete(simOpen, due)
						timerFor(due).Stop()
						simLog = append(simLog, record(due, simCtrl.WindowClosed(due)))
					}
				})
				timers[fn] = tm
				return tm
			}
			for _, a := range schedule {
				eng.ScheduleAt(sim.Time(a.at), func() {
					apply(&simLog, simOpen, a.fn, simCtrl.Arrive(a.fn, eng.Now().Duration(), a.idle))
					if d, ok := simOpen[a.fn]; ok {
						timerFor(a.fn).ResetAt(sim.Time(d))
					} else {
						timerFor(a.fn).Stop()
					}
				})
			}
			eng.Run()

			if len(manualLog) != len(simLog) {
				t.Fatalf("decision counts differ: manual %d, sim %d", len(manualLog), len(simLog))
			}
			closes := 0
			for i := range manualLog {
				if manualLog[i] != simLog[i] {
					t.Fatalf("decision %d diverges: manual %q, sim %q", i, manualLog[i], simLog[i])
				}
				if strings.Contains(manualLog[i], "/"+ActionWindowClose.String()+"/") {
					closes++
				}
			}
			if closes == 0 {
				t.Fatal("the replay closed no window")
			}
		})
	}
}

func TestActionString(t *testing.T) {
	if ActionWait.String() != "wait" || ActionFastPath.String() != "fast-path" || ActionEarlyClose.String() != "early-close" || ActionWindowClose.String() != "window" {
		t.Fatal("action strings wrong")
	}
	if Action(9).String() != "action(9)" {
		t.Fatal("unknown action string wrong")
	}
}
