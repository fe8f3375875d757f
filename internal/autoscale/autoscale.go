// Package autoscale is the predictive autoscaling control plane for
// the routing tier: it tracks per-function demand (EWMA + an arrival-rate
// histogram feeding a short-horizon forecaster), computes a
// target worker count per evaluation tick with hysteresis (burst
// scale-up, cooldown scale-down, pre-warm floor), and drives worker
// slots through explicit lifecycle transitions:
//
//	retired → (provision) → warming → ready → (drain) → draining → retired
//
// with scale-to-zero when the whole system goes idle.
//
// The controller is clock-agnostic in the internal/dispatch style: it
// never reads wall time, only the monotonic offsets callers pass in, so
// the exact same code drives both the simulated cluster (virtual clock)
// and the live router (wall clock), and one traffic schedule yields the
// same decision sequence in both. To keep that guarantee, decisions
// depend only on the configuration, the observed arrival schedule, and
// the tick schedule — never on observed latencies or on when a driver
// actually finishes draining a worker (drain completion is modelled by
// the DrainBudget clock; NoteDrained feeds metrics only).
//
// The controller is not safe for concurrent use: the simulator is
// single-threaded and the live router serialises calls behind a mutex.
package autoscale

import (
	"fmt"
	"math"
	"time"
)

// WorkerState is a lifecycle slot state.
type WorkerState uint8

const (
	// StateRetired marks a slot with no provisioned worker (never
	// provisioned, or drained and released).
	StateRetired WorkerState = iota
	// StateWarming marks a provisioned worker pre-warming ahead of
	// predicted load; it joins the ring once Warmup elapses.
	StateWarming
	// StateReady marks a worker serving traffic.
	StateReady
	// StateDraining marks a worker removed from the ring that is
	// finishing in-flight work before retiring.
	StateDraining
)

// String names the state for logs, traces, and reports.
func (s WorkerState) String() string {
	switch s {
	case StateWarming:
		return "warming"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	default:
		return "retired"
	}
}

// Action is a lifecycle transition the controller asks a driver to
// apply to one worker slot.
type Action uint8

const (
	// ActionProvision starts a worker in slot Worker (retired → warming).
	ActionProvision Action = iota + 1
	// ActionReady promotes a warmed worker into the ring (warming → ready).
	ActionReady
	// ActionDrain removes a worker from the ring to finish in-flight
	// work (ready → draining).
	ActionDrain
	// ActionReclaim cancels an in-progress drain because demand came
	// back — the still-warm worker rejoins the ring (draining → ready).
	ActionReclaim
	// ActionRetire releases a worker slot: a drained worker after its
	// DrainBudget elapses, or a warming worker that was never needed
	// (draining|warming → retired).
	ActionRetire
)

// String names the action for logs, traces, and decision fingerprints.
func (a Action) String() string {
	switch a {
	case ActionProvision:
		return "provision"
	case ActionReady:
		return "ready"
	case ActionDrain:
		return "drain"
	case ActionReclaim:
		return "reclaim"
	case ActionRetire:
		return "retire"
	default:
		return "unknown"
	}
}

// Decision is one scaling decision: apply Action to worker slot Worker.
// Target and Forecast record the controller's view at decision time so
// drivers can log/trace without re-deriving it.
type Decision struct {
	At       time.Duration
	Action   Action
	Worker   int
	Target   int
	Forecast float64
}

// String renders a compact fingerprint ("1500ms provision w2 target=3")
// used by the determinism corpus.
func (d Decision) String() string {
	return fmt.Sprintf("%dms %s w%d target=%d", d.At.Milliseconds(), d.Action, d.Worker, d.Target)
}

// Config tunes the control loop. The zero value is not valid; call
// (Config).WithDefaults and Validate (New does both).
type Config struct {
	// MinWorkers is the ready-count floor. 0 enables scale-to-zero.
	MinWorkers int
	// MaxWorkers bounds the fleet (slot count). Required >= 1.
	MaxWorkers int
	// TargetPerWorker is the demand (invocations/second) one ready
	// worker is provisioned to absorb. Required > 0.
	TargetPerWorker float64
	// Headroom is the fractional spare capacity kept above the
	// forecast (0.2 = 20%). Default 0.2.
	Headroom float64
	// EvalInterval is the control-loop tick period. Default 500ms.
	EvalInterval time.Duration
	// Warmup is the provision → ready pre-warm delay (container image
	// pull, runtime boot). Default 0 (ready in the same tick).
	Warmup time.Duration
	// DrainBudget is the modelled draining → retired duration. The
	// decision clock uses this budget — not the driver-reported drain
	// completion — so sim and live decisions stay identical.
	// Default 2×EvalInterval.
	DrainBudget time.Duration
	// ScaleDownAfter is the scale-down cooldown: consecutive
	// over-provisioned ticks required before draining. Default 3.
	ScaleDownAfter int
	// ScaleToZeroAfter is how long the whole system must be idle
	// before the fleet drops below one worker (only with
	// MinWorkers == 0). Default 10×EvalInterval.
	ScaleToZeroAfter time.Duration
	// PrewarmQuantile picks the per-tick rate quantile that sets the
	// pre-warm floor: enough workers stay warm to absorb the recent
	// burst level even while the instantaneous rate dips. Default 0.9.
	PrewarmQuantile float64
	// Alpha is the demand EWMA smoothing factor. Default 0.3.
	Alpha float64
}

// WithDefaults fills unset tuning fields.
func (c Config) WithDefaults() Config {
	if c.Headroom <= 0 {
		c.Headroom = 0.2
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 500 * time.Millisecond
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 2 * c.EvalInterval
	}
	if c.ScaleDownAfter <= 0 {
		c.ScaleDownAfter = 3
	}
	if c.ScaleToZeroAfter <= 0 {
		c.ScaleToZeroAfter = 10 * c.EvalInterval
	}
	if c.PrewarmQuantile <= 0 || c.PrewarmQuantile > 1 {
		c.PrewarmQuantile = 0.9
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.MaxWorkers < 1 {
		return fmt.Errorf("autoscale: max workers must be >= 1, got %d", c.MaxWorkers)
	}
	if c.MinWorkers < 0 || c.MinWorkers > c.MaxWorkers {
		return fmt.Errorf("autoscale: min workers must be in [0, %d], got %d", c.MaxWorkers, c.MinWorkers)
	}
	if c.TargetPerWorker <= 0 {
		return fmt.Errorf("autoscale: target per-worker rate must be > 0, got %v", c.TargetPerWorker)
	}
	return nil
}

// slot is one worker slot's lifecycle state.
type slot struct {
	state      WorkerState
	readyAt    time.Duration // warming → ready transition time
	retireAt   time.Duration // draining → retired transition time
	drainStart time.Duration
}

// Status is a point-in-time snapshot for gauges and reports.
type Status struct {
	Target   int
	Ready    int
	Warming  int
	Draining int
	Retired  int
	Forecast float64
	Floor    int // pre-warm floor in workers

	ScaleUps   uint64 // provision + reclaim decisions
	ScaleDowns uint64 // drain decisions
	Wakes      uint64 // scale-from-zero wake-ups
	Drained    uint64 // driver-reported completed drains
	DrainTime  time.Duration
}

// Controller is the shared autoscaling state machine.
type Controller struct {
	cfg    Config
	demand *Demand
	slots  []slot

	target   int
	floor    int
	forecast float64
	lowTicks int

	scaleUps   uint64
	scaleDowns uint64
	wakes      uint64
	drained    uint64
	drainTime  time.Duration

	// ready-worker integral: cost accounting for the static-vs-elastic
	// benchmark (worker-time provisioned, warming+ready+draining).
	busyIntegral time.Duration
	lastAccount  time.Duration
}

// New builds a controller with initial workers already Ready (the
// fleet's starting size, clamped to [0, MaxWorkers]).
func New(cfg Config, initial int) (*Controller, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initial < 0 {
		initial = 0
	}
	if initial > cfg.MaxWorkers {
		initial = cfg.MaxWorkers
	}
	c := &Controller{
		cfg:    cfg,
		demand: NewDemand(cfg.Alpha),
		slots:  make([]slot, cfg.MaxWorkers),
		target: initial,
	}
	for i := 0; i < initial; i++ {
		c.slots[i].state = StateReady
	}
	return c, nil
}

// Config reports the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Demand exposes the tracker (histogram export for metrics).
func (c *Controller) Demand() *Demand { return c.demand }

// Observe records one arrival at offset now. Drivers call this on
// every admitted invocation, then Wake to catch the scaled-to-zero case.
func (c *Controller) Observe(fn string, now time.Duration) {
	c.demand.Observe(fn, now)
}

// NoteDrained records that the driver finished draining slot w at
// offset now. Metrics only — the decision clock uses DrainBudget.
func (c *Controller) NoteDrained(w int, started, now time.Duration) {
	c.drained++
	if now > started {
		c.drainTime += now - started
	}
}

func (c *Controller) count(s WorkerState) int {
	n := 0
	for i := range c.slots {
		if c.slots[i].state == s {
			n++
		}
	}
	return n
}

// account folds elapsed provisioned-worker time into the cost
// integral, using the busy count that held before any transition at now.
func (c *Controller) account(now time.Duration) {
	if now <= c.lastAccount {
		return
	}
	busy := len(c.slots) - c.count(StateRetired)
	c.busyIntegral += time.Duration(busy) * (now - c.lastAccount)
	c.lastAccount = now
}

// BusyIntegral reports the accumulated provisioned worker-time
// (warming+ready+draining), the elastic fleet's cost figure.
func (c *Controller) BusyIntegral() time.Duration { return c.busyIntegral }

// advance applies time-based lifecycle transitions due at now, in slot
// order (canonical decision order for conformance).
func (c *Controller) advance(now time.Duration, out []Decision) []Decision {
	for i := range c.slots {
		sl := &c.slots[i]
		switch sl.state {
		case StateWarming:
			if sl.readyAt <= now {
				c.account(now)
				sl.state = StateReady
				out = append(out, Decision{At: now, Action: ActionReady, Worker: i, Target: c.target, Forecast: c.forecast})
			}
		case StateDraining:
			if sl.retireAt <= now {
				c.account(now)
				sl.state = StateRetired
				out = append(out, Decision{At: now, Action: ActionRetire, Worker: i, Target: c.target, Forecast: c.forecast})
			}
		}
	}
	return out
}

// provision starts up to n workers (reclaim draining slots first —
// they are still warm — then provision retired slots), returning the
// decisions emitted.
func (c *Controller) provision(now time.Duration, n int, out []Decision) []Decision {
	for i := range c.slots {
		if n == 0 {
			return out
		}
		if c.slots[i].state == StateDraining {
			c.account(now)
			c.slots[i].state = StateReady
			c.scaleUps++
			out = append(out, Decision{At: now, Action: ActionReclaim, Worker: i, Target: c.target, Forecast: c.forecast})
			n--
		}
	}
	for i := range c.slots {
		if n == 0 {
			return out
		}
		if c.slots[i].state == StateRetired {
			c.account(now)
			c.scaleUps++
			if c.cfg.Warmup <= 0 {
				c.slots[i].state = StateReady
				out = append(out, Decision{At: now, Action: ActionProvision, Worker: i, Target: c.target, Forecast: c.forecast})
				out = append(out, Decision{At: now, Action: ActionReady, Worker: i, Target: c.target, Forecast: c.forecast})
			} else {
				c.slots[i].state = StateWarming
				c.slots[i].readyAt = now + c.cfg.Warmup
				out = append(out, Decision{At: now, Action: ActionProvision, Worker: i, Target: c.target, Forecast: c.forecast})
			}
			n--
		}
	}
	return out
}

// retire drains up to n workers: warming slots retire outright (they
// never took traffic), then ready slots drain, highest index first so
// the longest-lived workers survive.
func (c *Controller) retire(now time.Duration, n int, out []Decision) []Decision {
	for i := len(c.slots) - 1; i >= 0 && n > 0; i-- {
		if c.slots[i].state == StateWarming {
			c.account(now)
			c.slots[i].state = StateRetired
			c.scaleDowns++
			out = append(out, Decision{At: now, Action: ActionRetire, Worker: i, Target: c.target, Forecast: c.forecast})
			n--
		}
	}
	for i := len(c.slots) - 1; i >= 0 && n > 0; i-- {
		if c.slots[i].state == StateReady {
			c.account(now)
			sl := &c.slots[i]
			sl.state = StateDraining
			sl.drainStart = now
			sl.retireAt = now + c.cfg.DrainBudget
			c.scaleDowns++
			out = append(out, Decision{At: now, Action: ActionDrain, Worker: i, Target: c.target, Forecast: c.forecast})
			n--
		}
	}
	return out
}

// Tick runs one control-loop evaluation at offset now and returns the
// decisions for the driver to apply, in canonical order.
func (c *Controller) Tick(now time.Duration) []Decision {
	var out []Decision
	out = c.advance(now, out)
	c.account(now)

	c.demand.Advance(now)
	c.forecast = c.demand.Forecast()

	// Pre-warm floor: hold enough warm workers for the recent burst
	// level (high quantile of per-tick rates), so recurring bursts
	// never pay cold starts.
	c.floor = int(math.Ceil(c.demand.PeakRate(c.cfg.PrewarmQuantile) / c.cfg.TargetPerWorker))

	desired := int(math.Ceil(c.forecast * (1 + c.cfg.Headroom) / c.cfg.TargetPerWorker))
	if desired < c.floor {
		desired = c.floor
	}
	if desired < 1 {
		desired = 1
	}
	if c.cfg.MinWorkers == 0 && c.demand.IdleFor(now) >= c.cfg.ScaleToZeroAfter {
		desired = 0
	}
	if desired < c.cfg.MinWorkers {
		desired = c.cfg.MinWorkers
	}
	if desired > c.cfg.MaxWorkers {
		desired = c.cfg.MaxWorkers
	}
	c.target = desired

	capacity := c.count(StateReady) + c.count(StateWarming)
	switch {
	case desired > capacity:
		// Scale up immediately: the forecast's max(ewma, last-rate)
		// makes a one-tick burst provision several workers at once.
		c.lowTicks = 0
		out = c.provision(now, desired-capacity, out)
	case desired < capacity:
		// Scale down only after the cooldown: demand dips must persist
		// ScaleDownAfter consecutive ticks before workers drain.
		c.lowTicks++
		if c.lowTicks >= c.cfg.ScaleDownAfter {
			c.lowTicks = 0
			out = c.retire(now, capacity-desired, out)
		}
	default:
		c.lowTicks = 0
	}
	return out
}

// Wake handles the scale-from-zero edge: when an arrival lands on a
// fully retired or draining fleet, the driver calls Wake right after
// Observe and applies the returned decisions immediately instead of
// waiting for the next tick. A no-op whenever any capacity exists.
func (c *Controller) Wake(now time.Duration) []Decision {
	if c.count(StateReady)+c.count(StateWarming) > 0 {
		return nil
	}
	c.wakes++
	if c.target < 1 {
		c.target = 1
	}
	c.lowTicks = 0
	return c.provision(now, 1, nil)
}

// State reports slot w's lifecycle state.
func (c *Controller) State(w int) WorkerState {
	if w < 0 || w >= len(c.slots) {
		return StateRetired
	}
	return c.slots[w].state
}

// DrainStart reports when slot w began draining (drivers time real
// drains against it for NoteDrained).
func (c *Controller) DrainStart(w int) time.Duration {
	if w < 0 || w >= len(c.slots) {
		return 0
	}
	return c.slots[w].drainStart
}

// Snapshot reports the current status for gauges and reports.
func (c *Controller) Snapshot() Status {
	return Status{
		Target:     c.target,
		Ready:      c.count(StateReady),
		Warming:    c.count(StateWarming),
		Draining:   c.count(StateDraining),
		Retired:    c.count(StateRetired),
		Forecast:   c.forecast,
		Floor:      c.floor,
		ScaleUps:   c.scaleUps,
		ScaleDowns: c.scaleDowns,
		Wakes:      c.wakes,
		Drained:    c.drained,
		DrainTime:  c.drainTime,
	}
}
