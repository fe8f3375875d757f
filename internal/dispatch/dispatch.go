// Package dispatch implements the Invoke Mapper window controller shared
// by the simulator (internal/core) and the live platform
// (internal/platform): the one place that decides when a function's
// window closes. All requests for one function inside one window form a
// single batch (§III-B); the controller's policy, chosen at construction
// (ConfigFor), sets where the windows fall.
//
// The fixed policy is the paper's: windows end on the boundaries of a
// tick of the dispatch interval (0.2 s), every arrival waits for the next
// boundary, and an arrival on a boundary closes at that boundary.
//
// The paper's own interval sweep (Fig. 11) shows the choice of interval
// is workload-sensitive. The adaptive policy keeps the grouping semantics
// but sizes the window per function from the observed arrival process:
//
//   - Idle fast-path: a lone arrival with no batching opportunity (no
//     busy container of that function, nothing pending, arrivals sparse)
//     dispatches immediately instead of eating up to a full window of
//     pointless queueing.
//   - Load-aware window: an EWMA over inter-arrival gaps predicts how
//     many further arrivals a window could fold. Sparse traffic shrinks
//     the window toward MinInterval; dense traffic grows it toward
//     MaxInterval, where grouping pays exactly as in the paper.
//   - Early close: a window whose group already reached MaxGroupSize
//     closes at once — further waiting cannot improve the batch.
//
// The controller is clock-agnostic: callers feed monotonic offsets
// (time.Duration since an arbitrary epoch). The discrete-event simulator
// passes virtual time and the live platform passes wall-clock offsets,
// so both drive the identical state machine — the sim-vs-live conformance
// test in dispatch_test.go depends on that.
//
// Controller is not safe for concurrent use; callers serialise access
// (the sim engine is single-threaded, the live platform holds its mutex).
package dispatch

import (
	"fmt"
	"sort"
	"time"

	"faasbatch/internal/policy"
)

// DefaultAlpha is the EWMA smoothing factor for inter-arrival gaps:
// heavy enough that a burst's tight gaps dominate within a few arrivals,
// light enough that one stray gap does not whipsaw the window.
const DefaultAlpha = 0.3

// idleResetFactor scales MaxInterval into the idle-reset threshold: a
// gap longer than idleResetFactor windows is a restarted arrival stream
// (the function went quiet — possibly scaled to zero), not a sample of
// the old process. The gap is discarded and the EWMA re-primed from the
// new stream, so a burst arriving after the quiet spell sees its own
// tight gaps immediately and re-batches within two arrivals — the
// cold-start amortisation the autoscaler's scale-from-zero wake relies
// on — instead of fast-pathing each head-of-burst arrival individually
// while the stale idle gap averages down.
const idleResetFactor = 8

// DefaultMinInterval is the adaptive window floor when none is set: small
// enough that sparse traffic sees near-immediate dispatch, large enough
// that same-instant arrivals still fold into one group.
const DefaultMinInterval = 5 * time.Millisecond

// Config parameterises a Controller. The zero policy is the adaptive one;
// ConfigFor builds the fixed policy's configuration.
type Config struct {
	// MinInterval is the floor of the adaptive window: the shortest a
	// per-function window may shrink when arrivals are sparse. It must
	// be non-negative (zero means a window may close immediately).
	MinInterval time.Duration
	// MaxInterval is the cap of the adaptive window — typically the
	// paper's fixed interval, so adaptive mode never batches more
	// coarsely than the fixed configuration it replaces.
	MaxInterval time.Duration
	// MaxGroupSize early-closes a window whose group reached this many
	// invocations (<= 0 means no cap).
	MaxGroupSize int

	// fixed selects the fixed policy: windows end on the boundaries of a
	// tick of period MaxInterval.
	fixed bool
}

// ConfigFor resolves the Invoke Mapper settings a scheduler exposes into
// a controller configuration. Without adaptive it is the paper's fixed
// policy on interval and cfg is ignored. With adaptive, the cap is
// interval — so the adaptive policy never batches more coarsely than the
// fixed one it replaces — and cfg's zero MinInterval takes
// DefaultMinInterval, clamped to the cap.
func ConfigFor(adaptive bool, interval time.Duration, cfg Config) Config {
	if !adaptive {
		return Config{MinInterval: interval, MaxInterval: interval, fixed: true}
	}
	cfg.MaxInterval = interval
	if cfg.MinInterval == 0 {
		cfg.MinInterval = DefaultMinInterval
		if cfg.MinInterval > cfg.MaxInterval {
			cfg.MinInterval = cfg.MaxInterval
		}
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinInterval < 0 {
		return fmt.Errorf("dispatch: min interval must be non-negative, got %v", c.MinInterval)
	}
	if c.MaxInterval <= 0 {
		return fmt.Errorf("dispatch: max interval must be positive, got %v", c.MaxInterval)
	}
	if c.MaxInterval < c.MinInterval {
		return fmt.Errorf("dispatch: max interval %v below min interval %v", c.MaxInterval, c.MinInterval)
	}
	return nil
}

// Action says what the caller must do with the arrival it just reported.
type Action int

// Actions.
const (
	// ActionWait holds the arrival for its window; the window closes at
	// Decision.Deadline (the caller dispatches the whole group then).
	ActionWait Action = iota
	// ActionFastPath dispatches the arrival immediately: it is alone,
	// nothing of its function is busy, and the arrival process is too
	// sparse for a window to fold a second request.
	ActionFastPath
	// ActionEarlyClose dispatches the whole pending group immediately:
	// it reached MaxGroupSize, so holding the window open buys nothing.
	ActionEarlyClose
	// ActionWindowClose dispatches the whole pending group because its
	// window ended: WindowClosed returns it, so a caller handles a close
	// at the deadline with the code that handles the immediate closes.
	ActionWindowClose
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionWait:
		return "wait"
	case ActionFastPath:
		return "fast-path"
	case ActionEarlyClose:
		return "early-close"
	case ActionWindowClose:
		return "window"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is the controller's verdict on one arrival.
type Decision struct {
	// Action is what to do with the pending group now.
	Action Action
	// Deadline is the absolute offset at which the open window closes
	// (meaningful for ActionWait). Arrivals joining an already-open
	// window see its original deadline: the window is anchored at the
	// group's first arrival, as in the paper.
	Deadline time.Duration
	// Window is the interval the controller chose for this function at
	// this arrival — the gauge the metrics surface exports.
	Window time.Duration
}

// fnState is one function's window state.
type fnState struct {
	// gap smooths inter-arrival gaps (in seconds; adaptive policy only).
	gap *policy.EWMA
	// last is the previous arrival offset; seen marks it valid.
	last time.Duration
	seen bool
	// pending counts arrivals since the last window close.
	pending int
	// open marks an open window ending at deadline, anchored at the
	// group's first arrival (groupStart).
	open       bool
	groupStart time.Duration
	deadline   time.Duration
	// window is the most recently chosen interval.
	window time.Duration
}

// Controller maps arrivals to dispatch decisions, one window state
// machine per function.
type Controller struct {
	cfg Config
	fns map[string]*fnState
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, fns: make(map[string]*fnState)}, nil
}

// state returns fn's window state, creating it on first use.
func (c *Controller) state(fn string) *fnState {
	st, ok := c.fns[fn]
	if !ok {
		ewma, err := policy.NewEWMA(DefaultAlpha)
		if err != nil {
			// Unreachable: DefaultAlpha is in (0, 1].
			panic(err)
		}
		st = &fnState{gap: ewma}
		c.fns[fn] = st
	}
	return st
}

// window chooses fn's interval from the smoothed arrival rate. With an
// expected n = MaxInterval/gap further arrivals inside the cap, the
// window interpolates Min + (Max-Min)·n/(n+1): sparse traffic (n → 0)
// collapses to MinInterval, dense traffic (n → ∞) saturates at
// MaxInterval. The mapping is monotone in the arrival rate — the
// property test in dispatch_test.go proves it.
func (c *Controller) window(st *fnState) time.Duration {
	min, max := c.cfg.MinInterval, c.cfg.MaxInterval
	if !st.gap.Primed() {
		// No rate estimate yet: assume sparse, favour latency.
		return min
	}
	gap := st.gap.Value()
	if gap <= 0 {
		// Arrivals in the same instant: maximal density.
		return max
	}
	n := max.Seconds() / gap
	w := min + time.Duration(n/(n+1)*float64(max-min))
	if w < min {
		w = min
	}
	if w > max {
		w = max
	}
	return w
}

// sparse reports whether fewer than one further arrival is expected even
// within the full MaxInterval — the regime where holding a window open is
// pure queueing delay.
func (c *Controller) sparse(st *fnState) bool {
	if !st.gap.Primed() {
		return true
	}
	return st.gap.Value() > c.cfg.MaxInterval.Seconds()
}

// UsesIdle reports whether Arrive reads its idle argument, so callers can
// skip working the signal out when it does not: the fixed policy has no
// fast path, and a MaxGroupSize of one early-closes every arrival before
// the fast path is considered.
func (c *Controller) UsesIdle() bool { return !c.cfg.fixed && c.cfg.MaxGroupSize != 1 }

// Arrive reports one arrival for fn at monotonic offset now. idle is the
// caller's batching-opportunity signal: true when no container of fn is
// busy and nothing else of fn waits (the arrival is alone). The returned
// Decision tells the caller to dispatch now (fast path / early close —
// the controller has already reset the group) or to hold until Deadline.
// The fixed policy always holds.
func (c *Controller) Arrive(fn string, now time.Duration, idle bool) Decision {
	st := c.state(fn)
	if c.cfg.fixed {
		return c.joinTick(st, now)
	}
	if st.seen {
		if gap := now - st.last; gap > time.Duration(idleResetFactor)*c.cfg.MaxInterval {
			// Idle fast-path reset: the stream restarted after a long
			// quiet spell (see idleResetFactor).
			st.gap.Reset()
		} else {
			st.gap.Observe(gap.Seconds())
		}
	}
	st.last = now
	st.seen = true
	st.pending++
	st.window = c.window(st)

	if c.cfg.MaxGroupSize > 0 && st.pending >= c.cfg.MaxGroupSize {
		st.reset()
		return Decision{Action: ActionEarlyClose, Window: st.window}
	}
	if idle && st.pending == 1 && !st.open && c.sparse(st) {
		st.reset()
		return Decision{Action: ActionFastPath, Window: st.window}
	}
	if !st.open {
		st.open = true
		st.groupStart = now
		st.deadline = now + st.window
	} else if d := st.groupStart + st.window; d > st.deadline {
		// The arrival estimate densified since the window opened (e.g. a
		// burst arriving after a quiet spell re-primes the EWMA): extend
		// the deadline so the burst is not fragmented by the stale, short
		// window chosen at its head. Still anchored at the group's first
		// arrival, so no group ever waits longer than MaxInterval.
		st.deadline = d
	}
	return Decision{Action: ActionWait, Deadline: st.deadline, Window: st.window}
}

// EnsureOpen opens a window for fn (if none is open) without recording an
// arrival — used when a retry re-batches an old invocation into the next
// window: the retried call must not skew the arrival-rate estimate, but
// it does need a window deadline to ride. The returned Decision is always
// ActionWait.
func (c *Controller) EnsureOpen(fn string, now time.Duration) Decision {
	st := c.state(fn)
	if c.cfg.fixed {
		return c.joinTick(st, now)
	}
	st.pending++
	if c.cfg.MaxGroupSize > 0 && st.pending >= c.cfg.MaxGroupSize {
		st.reset()
		return Decision{Action: ActionEarlyClose, Window: st.window}
	}
	if !st.open {
		st.window = c.window(st)
		st.open = true
		st.groupStart = now
		st.deadline = now + st.window
	}
	return Decision{Action: ActionWait, Deadline: st.deadline, Window: st.window}
}

// joinTick is the fixed policy's whole decision: the arrival waits for
// the next boundary of the interval tick. The first boundary is one
// interval after the epoch, and an arrival on a boundary closes at it.
func (c *Controller) joinTick(st *fnState, now time.Duration) Decision {
	period := c.cfg.MaxInterval
	st.pending++
	st.window = period
	if !st.open {
		st.open = true
		ticks := (now + period - 1) / period
		if ticks < 1 {
			ticks = 1
		}
		st.deadline = ticks * period
	}
	return Decision{Action: ActionWait, Deadline: st.deadline, Window: period}
}

// WindowClosed informs the controller that fn's pending group dispatched
// (deadline reached, or the caller flushed — e.g. at Close). Callers must
// pair every drain of their pending queue with exactly one WindowClosed,
// so the controller's group count stays in step with the queue. The
// returned Decision is always ActionWindowClose.
func (c *Controller) WindowClosed(fn string) Decision {
	if st, ok := c.fns[fn]; ok {
		st.reset()
	}
	return Decision{Action: ActionWindowClose, Window: c.Window(fn)}
}

// AppendClosing appends to dst the functions whose windows close when
// fn's deadline arrives, in closing order, and returns the extended
// slice. An adaptive window is its function's own. The fixed policy has
// one window, the mapper's: the tick that ends it closes every function's
// group, in name order, whichever arrival armed the deadline first — so a
// driver that replays same-instant events in arming order (the
// simulator) stays deterministic in the function names alone.
func (c *Controller) AppendClosing(dst []string, fn string) []string {
	st, ok := c.fns[fn]
	if !c.cfg.fixed || !ok {
		return append(dst, fn)
	}
	n := len(dst)
	for name, other := range c.fns {
		if other.open && other.deadline == st.deadline {
			dst = append(dst, name)
		}
	}
	sort.Strings(dst[n:])
	return dst
}

// reset clears the group state after a dispatch.
func (st *fnState) reset() {
	st.pending = 0
	st.open = false
	st.groupStart = 0
	st.deadline = 0
}

// Window reports fn's most recently chosen interval (MinInterval before
// any arrival): the value behind the dispatch-window gauge.
func (c *Controller) Window(fn string) time.Duration {
	if st, ok := c.fns[fn]; ok && st.window > 0 {
		return st.window
	}
	return c.cfg.MinInterval
}

// expectedGroupCap bounds ExpectedGroup so one anomalous gap estimate
// cannot demand an absurd pre-allocation.
const expectedGroupCap = 64

// ExpectedGroup estimates how many invocations fn's next window will
// fold, from the same EWMA that sizes the window: a window of length w
// over arrivals gapped g seconds apart holds about w/g + 1 calls (the
// opener plus the arrivals the window folds). Callers use it to pre-size
// group slices so the steady state appends without growing. The estimate
// is clamped to [1, 64] and to MaxGroupSize; an unprimed function
// returns 1.
func (c *Controller) ExpectedGroup(fn string) int {
	st, ok := c.fns[fn]
	if !ok || !st.gap.Primed() {
		return 1
	}
	w := st.window
	if w <= 0 {
		w = c.window(st)
	}
	n := 1
	if gap := st.gap.Value(); gap > 0 {
		n = int(w.Seconds()/gap) + 1
	} else {
		// Same-instant arrivals: maximal density, take the cap.
		n = expectedGroupCap
	}
	if c.cfg.MaxGroupSize > 0 && n > c.cfg.MaxGroupSize {
		n = c.cfg.MaxGroupSize
	}
	if n > expectedGroupCap {
		n = expectedGroupCap
	}
	if n < 1 {
		n = 1
	}
	return n
}
