package router

import (
	"fmt"
	"sort"
	"sync"

	"faasbatch/internal/httpapi"
)

// WorkerState is a registry member's health state.
type WorkerState int

// Worker states.
const (
	// WorkerUp means the worker owns ring segments and receives traffic.
	WorkerUp WorkerState = iota + 1
	// WorkerDown means the worker is marked down: removed from the ring,
	// skipped by the forwarder, still probed for recovery.
	WorkerDown
	// WorkerDraining means the worker was administratively removed from
	// the ring (autoscale scale-down) and is finishing its in-flight
	// forwards before retiring. Health probes never mark it back up.
	WorkerDraining
	// WorkerStandby means the worker is administratively retired: it
	// holds no ring segments and takes no traffic until the autoscaler
	// activates it again.
	WorkerStandby
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerUp:
		return "up"
	case WorkerDown:
		return "down"
	case WorkerDraining:
		return "draining"
	case WorkerStandby:
		return "standby"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// WorkerSpec names one worker gateway.
type WorkerSpec struct {
	// ID is the worker's fleet identity (the ring member name).
	ID string
	// URL is the worker's base URL (scheme://host:port, no trailing /).
	URL string
}

// worker is the registry's record of one fleet member.
type worker struct {
	spec       WorkerSpec
	state      WorkerState
	consecFail int
	consecOK   int
	inflight   int
	forwarded  int64
	failures   int64
}

// Registry tracks the fleet: worker states, in-flight load, and the
// consistent-hash ring spanning the workers currently marked up. All
// methods are safe for concurrent use. The worker set is fixed at
// construction; ring membership is dynamic: the autoscaler activates
// standby workers and drains active ones while forwards are in flight.
type Registry struct {
	mu            sync.Mutex
	workers       map[string]*worker
	order         []*worker // registration order, for stable iteration
	ring          *Ring
	markDownAfter int
	markUpAfter   int
	markDowns     int64
	markUps       int64
	onDrained     func(id string)              // drain-complete hook, called unlocked
	onMembership  func(id string, inRing bool) // ring-membership hook, called unlocked
}

// RegistryConfig parameterises NewRegistryWithConfig — the registry's
// knobs as one struct, matching the router.Config style, instead of
// NewRegistry's positional arguments.
type RegistryConfig struct {
	// Workers is the fleet (at least one).
	Workers []WorkerSpec
	// VNodes is the ring's virtual-node count per worker (<= 0 uses
	// DefaultVNodes).
	VNodes int
	// MarkDownAfter is how many consecutive failures mark a worker down
	// (default 2).
	MarkDownAfter int
	// MarkUpAfter is how many consecutive probe successes mark a down
	// worker back up (default 2).
	MarkUpAfter int
}

// NewRegistryWithConfig builds a registry over cfg.Workers. Workers
// start optimistically up (the first failed probe round marks the dead
// ones down), so a fresh router serves traffic before its first probe
// completes. A worker is marked down after MarkDownAfter consecutive
// failures and back up after MarkUpAfter consecutive successes.
func NewRegistryWithConfig(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("router: registry needs at least one worker")
	}
	if cfg.MarkDownAfter <= 0 {
		cfg.MarkDownAfter = 2
	}
	if cfg.MarkUpAfter <= 0 {
		cfg.MarkUpAfter = 2
	}
	r := &Registry{
		workers:       make(map[string]*worker, len(cfg.Workers)),
		ring:          NewRing(cfg.VNodes),
		markDownAfter: cfg.MarkDownAfter,
		markUpAfter:   cfg.MarkUpAfter,
	}
	for _, spec := range cfg.Workers {
		if spec.ID == "" || spec.URL == "" {
			return nil, fmt.Errorf("router: worker spec needs an id and a url, got %+v", spec)
		}
		if _, dup := r.workers[spec.ID]; dup {
			return nil, fmt.Errorf("router: duplicate worker id %q", spec.ID)
		}
		w := &worker{spec: spec, state: WorkerUp}
		r.workers[spec.ID] = w
		r.order = append(r.order, w)
		r.ring.Add(spec.ID)
	}
	return r, nil
}

// Specs lists every worker's spec in registration order, regardless of
// state (the prober probes down workers too, to mark them back up).
func (r *Registry) Specs() []WorkerSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerSpec, 0, len(r.order))
	for _, w := range r.order {
		out = append(out, w.spec)
	}
	return out
}

// State reports a worker's current state (0 when unknown).
func (r *Registry) State(id string) WorkerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return 0
	}
	return w.state
}

// UpCount counts workers currently marked up.
func (r *Registry) UpCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Candidates orders the up workers for one function under bounded load:
// the ring owner first (or the first under-bound replica), then failover
// replicas in ring order, then overloaded workers by ascending load.
// Down workers never appear.
func (r *Registry) Candidates(fn string, loadBound float64) []string {
	return r.appendCandidates(nil, fn, loadBound)
}

// appendCandidates is Candidates appending to dst: the hash policy picks
// into the slice its recycled binding keeps.
func (r *Registry) appendCandidates(dst []string, fn string, loadBound float64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, w := range r.order {
		if w.state == WorkerUp { // exactly the ring's members
			total += w.inflight
		}
	}
	return r.ring.PickBounded(dst, fn, loadBound, total, func(id string) int {
		return r.workers[id].inflight
	})
}

// NoteResult folds one observation — a health probe or a forward attempt
// — into the worker's state machine, returning the transition it caused
// (if any): consecutive failures mark a worker down and shrink the ring;
// consecutive successes mark it back up and regrow the ring.
func (r *Registry) NoteResult(id string, ok bool) (changed bool, now WorkerState) {
	r.mu.Lock()
	w, exists := r.workers[id]
	if !exists {
		r.mu.Unlock()
		return false, 0
	}
	changed, now, membership := r.noteLocked(w, ok)
	r.mu.Unlock()
	if membership != nil {
		membership(id, now == WorkerUp)
	}
	return changed, now
}

// noteLocked is NoteResult under r.mu. A transition also returns the
// membership hook, for the caller to fire once it has unlocked.
func (r *Registry) noteLocked(w *worker, ok bool) (changed bool, now WorkerState, membership func(string, bool)) {
	if ok {
		w.consecFail = 0
		w.consecOK++
		if w.state == WorkerDown && w.consecOK >= r.markUpAfter {
			w.state = WorkerUp
			r.ring.Add(w.spec.ID)
			r.markUps++
			return true, WorkerUp, r.onMembership
		}
		return false, w.state, nil
	}
	w.consecOK = 0
	w.consecFail++
	w.failures++
	if w.state == WorkerUp && w.consecFail >= r.markDownAfter {
		w.state = WorkerDown
		r.ring.Remove(w.spec.ID)
		r.markDowns++
		return true, WorkerDown, r.onMembership
	}
	// Draining and standby workers are administrative states: probe
	// results keep feeding the counters but never flip them up or down.
	return false, w.state, nil
}

// OnMembership registers the ring-membership hook: it fires (without
// the registry lock held) whenever a worker joins or leaves the serving
// set — probe mark-down/up, autoscale activate, drain, or retire. At
// most one hook; the router installs it to feed the scheduling policy.
func (r *Registry) OnMembership(fn func(id string, inRing bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onMembership = fn
}

// OnDrained registers the drain-complete hook: it fires (without the
// registry lock held) when a draining worker's in-flight count reaches
// zero. At most one hook; the autoscale driver installs it.
func (r *Registry) OnDrained(fn func(id string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDrained = fn
}

// Activate puts a standby, draining, or down worker back in service:
// state up, ring segments restored, health counters reset (the probe
// loop re-marks it down if it is actually dead). It reports whether the
// state changed.
func (r *Registry) Activate(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerUp {
		r.mu.Unlock()
		return false
	}
	w.state = WorkerUp
	w.consecFail, w.consecOK = 0, 0
	r.ring.Add(id)
	hook := r.onMembership
	r.mu.Unlock()
	if hook != nil {
		hook(id, true)
	}
	return true
}

// Drain begins a graceful removal: the worker leaves the ring (no new
// forwards) but keeps serving its in-flight ones. When the in-flight
// count reaches zero the OnDrained hook fires — immediately, if it
// already is zero. It reports whether the state changed.
func (r *Registry) Drain(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerDraining || w.state == WorkerStandby {
		r.mu.Unlock()
		return false
	}
	wasServing := w.state == WorkerUp
	w.state = WorkerDraining
	r.ring.Remove(id)
	drained := w.inflight == 0
	hook := r.onDrained
	membership := r.onMembership
	r.mu.Unlock()
	if wasServing && membership != nil {
		membership(id, false)
	}
	if drained && hook != nil {
		hook(id)
	}
	return true
}

// Retire moves a drained (or down/up) worker to standby, releasing its
// ring segments. It reports whether the state changed.
func (r *Registry) Retire(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerStandby {
		r.mu.Unlock()
		return false
	}
	wasServing := w.state == WorkerUp
	w.state = WorkerStandby
	w.consecFail, w.consecOK = 0, 0
	r.ring.Remove(id)
	hook := r.onMembership
	r.mu.Unlock()
	if wasServing && hook != nil {
		hook(id, false)
	}
	return true
}

// Counts reports the fleet's state populations: ready (up), draining,
// down, and standby — the faascluster_workers_* gauges.
func (r *Registry) Counts() (ready, draining, down, standby int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		switch w.state {
		case WorkerUp:
			ready++
		case WorkerDraining:
			draining++
		case WorkerDown:
			down++
		case WorkerStandby:
			standby++
		}
	}
	return ready, draining, down, standby
}

// BeginForward counts one forward in flight against the worker. It
// reports false, counting nothing, for an unknown id.
func (r *Registry) BeginForward(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if ok {
		w.inflight++
	}
	return ok
}

// EndForward settles the forward BeginForward counted, in one critical
// section: the in-flight count drops (a draining worker that reaches zero
// has completed its graceful drain and the OnDrained hook fires), served
// counts one invocation the worker answered with a result, and ok feeds
// the health state machine exactly as NoteResult does, whose transition
// it returns.
func (r *Registry) EndForward(id string, served, ok bool) (changed bool, now WorkerState) {
	r.mu.Lock()
	w, exists := r.workers[id]
	if !exists {
		r.mu.Unlock()
		return false, 0
	}
	var drained func(string)
	if w.inflight > 0 {
		w.inflight--
		if w.state == WorkerDraining && w.inflight == 0 {
			drained = r.onDrained
		}
	}
	if served {
		w.forwarded++
	}
	changed, now, membership := r.noteLocked(w, ok)
	r.mu.Unlock()
	if drained != nil {
		drained(id)
	}
	if membership != nil {
		membership(id, now == WorkerUp)
	}
	return changed, now
}

// Transitions reports the cumulative mark-down/mark-up counts.
func (r *Registry) Transitions() (markDowns, markUps int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.markDowns, r.markUps
}

// ForwardedPerWorker returns each worker's served-invocation count in
// registration order (feeds obs.Imbalance).
func (r *Registry) ForwardedPerWorker() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.order))
	for _, w := range r.order {
		out = append(out, int(w.forwarded))
	}
	return out
}

// Snapshot renders the worker table as wire rows, sorted by id.
func (r *Registry) Snapshot() []httpapi.WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]httpapi.WorkerStatus, 0, len(r.order))
	for _, w := range r.order {
		out = append(out, httpapi.WorkerStatus{
			ID:        w.spec.ID,
			URL:       w.spec.URL,
			State:     w.state.String(),
			Inflight:  int64(w.inflight),
			Forwarded: w.forwarded,
			Failures:  w.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
