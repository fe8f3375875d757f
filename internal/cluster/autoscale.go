package cluster

import (
	"fmt"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/sim"
)

// maxScaleDecisions bounds the retained decision log (scenario reports
// read it; the controller's counters keep the lifetime totals).
const maxScaleDecisions = 4096

// simScaler drives the shared autoscale.Controller against the
// simulated fleet: controller slot i maps to node i, and decisions
// become picker membership transitions (the same ring remove/re-add the
// live registry performs), so the simulated fleet grows and shrinks
// exactly as the live one would. The controller is clock-agnostic; this
// driver feeds it virtual offsets from the engine's epoch, while the
// live driver (internal/router) feeds the identical controller
// wall-clock offsets.
type simScaler struct {
	c         *Cluster
	ctrl      *autoscale.Controller
	ticker    *sim.Ticker
	decisions []autoscale.Decision
	// pendDrain marks nodes ordered to drain that still hold in-flight
	// work; the Submit completion callback fires NoteDrained when the
	// last invocation leaves, mirroring the live registry's drain hook.
	pendDrain []bool
}

// initAutoscale wires a controller over the fleet. Node slots beyond
// the initial ready count start marked down (the live driver's standby
// state). Mirrors newLiveScaler's clamping so one Config yields the
// same resolved controller in both drivers.
func (c *Cluster) initAutoscale(acfg autoscale.Config) error {
	if acfg.MaxWorkers <= 0 || acfg.MaxWorkers > len(c.nodes) {
		acfg.MaxWorkers = len(c.nodes)
	}
	// Never start at zero: the first arrival is served while the
	// control loop warms up; the idle gate drains the fleet later if
	// MinWorkers is 0.
	initial := acfg.MinWorkers
	if initial < 1 {
		initial = 1
	}
	ctrl, err := autoscale.New(acfg, initial)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	s := &simScaler{
		c:         c,
		ctrl:      ctrl,
		pendDrain: make([]bool, len(c.nodes)),
	}
	for i := initial; i < len(c.nodes); i++ {
		c.picker.setDown(i, true)
	}
	s.ticker, err = sim.NewTicker(c.eng, ctrl.Config().EvalInterval, func(t sim.Time) {
		s.tick(t.Duration())
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.scaler = s
	return nil
}

// observe records one admitted invocation and handles the
// scale-from-zero wake before the dispatcher picks a node, so the
// arrival that triggered the wake routes to the woken node rather than
// degrading to the all-down fallback.
func (s *simScaler) observe(fn string, off time.Duration) {
	s.ctrl.Observe(fn, off)
	s.apply(s.ctrl.Wake(off))
}

// tick runs one control-loop evaluation at virtual offset off.
func (s *simScaler) tick(off time.Duration) {
	s.apply(s.ctrl.Tick(off))
}

// apply turns controller decisions into picker membership transitions
// and appends them to the bounded log. The engine is single-threaded,
// so no locking is needed (the live driver's analogue takes a mutex).
func (s *simScaler) apply(ds []autoscale.Decision) {
	for _, d := range ds {
		if d.Worker < 0 || d.Worker >= len(s.c.nodes) {
			continue
		}
		switch d.Action {
		case autoscale.ActionProvision:
			// The node exists from construction; pre-warming is the
			// Warmup delay before ActionReady admits it to routing.
		case autoscale.ActionReady, autoscale.ActionReclaim:
			s.pendDrain[d.Worker] = false
			s.c.picker.setDown(d.Worker, false)
		case autoscale.ActionDrain:
			s.c.picker.setDown(d.Worker, true)
			if s.c.picker.inflight[d.Worker] == 0 {
				s.noteDrained(d.Worker)
			} else {
				s.pendDrain[d.Worker] = true
			}
		case autoscale.ActionRetire:
			// Drain budget expired (or a warming slot was cancelled):
			// the slot leaves the fleet whether or not its last
			// invocation finished, exactly like the live registry's
			// standby transition — a still-pending drain hook is
			// abandoned, not fired late.
			s.pendDrain[d.Worker] = false
			s.c.picker.setDown(d.Worker, true)
		}
	}
	s.decisions = append(s.decisions, ds...)
	if over := len(s.decisions) - maxScaleDecisions; over > 0 {
		s.decisions = append(s.decisions[:0], s.decisions[over:]...)
	}
}

// noteDrained reports a completed drain to the controller's metrics
// (never its decisions — real drain completion times differ between
// sim and live, and feeding them back would make the two diverge).
func (s *simScaler) noteDrained(w int) {
	s.ctrl.NoteDrained(w, s.ctrl.DrainStart(w), s.c.eng.Now().Duration())
}

// completed is the Submit completion hook: it fires the drain hook when
// a draining node empties.
func (s *simScaler) completed(node int) {
	if s.pendDrain[node] && s.c.picker.inflight[node] == 0 {
		s.pendDrain[node] = false
		s.noteDrained(node)
	}
}

// AutoscaleEnabled reports whether the cluster runs the autoscaling
// control loop.
func (c *Cluster) AutoscaleEnabled() bool { return c.scaler != nil }

// AutoscaleDecisions returns the retained scaling decision log in
// order (empty when autoscaling is disabled).
func (c *Cluster) AutoscaleDecisions() []autoscale.Decision {
	if c.scaler == nil {
		return nil
	}
	return append([]autoscale.Decision(nil), c.scaler.decisions...)
}

// AutoscaleStatus snapshots the controller (zero value when
// autoscaling is disabled).
func (c *Cluster) AutoscaleStatus() autoscale.Status {
	if c.scaler == nil {
		return autoscale.Status{}
	}
	return c.scaler.ctrl.Snapshot()
}

// AutoscaleBusyIntegral reports provisioned worker-time accumulated by
// the controller (the elastic fleet's capacity cost; zero when
// autoscaling is disabled).
func (c *Cluster) AutoscaleBusyIntegral() time.Duration {
	if c.scaler == nil {
		return 0
	}
	return c.scaler.ctrl.BusyIntegral()
}

// ReadyNodes counts nodes currently receiving newly routed work.
func (c *Cluster) ReadyNodes() int {
	n := 0
	for i := range c.picker.down {
		if !c.picker.down[i] {
			n++
		}
	}
	return n
}
