// Package cpusched models CPU contention on a multi-core worker node for
// discrete-event simulation.
//
// A Pool owns a fixed number of cores and a set of Groups (one per container
// plus one for system work such as container creation). Each runnable Task
// is single-threaded: it can consume at most one core. The pluggable
// Discipline decides how cores are divided among runnable tasks:
//
//   - FairShare approximates Linux CFS with max-min fair processor sharing,
//     honouring per-group core caps (docker cpuset limits).
//   - MLFQ approximates the SFS user-space scheduler: tasks that have
//     consumed little CPU (short functions) pre-empt tasks that have
//     consumed more, in discrete priority levels.
//
// The pool advances task progress lazily between events: whenever the task
// set or the allocation changes, it integrates elapsed virtual time into
// each task's consumed budget and schedules the next completion or
// priority-crossing event.
package cpusched

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"faasbatch/internal/sim"
)

// completionEpsilon absorbs floating-point residue when deciding that a
// task's remaining work has hit zero.
const completionEpsilon = 50 // nanoseconds

// Task is a single-threaded unit of CPU work submitted to a Pool. Like a
// sim.Timer it belongs to its submitter: embed it by value in whatever
// waits on the work and Start it again once it is done, or let Submit
// allocate one.
type Task struct {
	group     *Group
	remaining float64 // nanoseconds of CPU work left
	consumed  float64 // nanoseconds of CPU time used so far
	rate      float64 // cores currently allocated (0..1)
	onDone    func()
	done      bool
}

// Group is a container-level scheduling entity. Tasks in a group share the
// group's core cap (the docker cpuset limit).
type Group struct {
	pool     *Pool
	cap      float64 // max aggregate cores; <= 0 means unlimited
	tasks    []*Task
	inline   [4]*Task // tasks' first backing array: most groups never run more at once
	label    string
	ord      uint64 // creation order within the pool: the runnable list's key
	runnable bool   // in pool.runnable
	closed   bool
}

// Submit allocates a task and starts it; see Start.
func (g *Group) Submit(work time.Duration, onDone func()) *Task {
	t := &Task{}
	g.Start(t, work, onDone)
	return t
}

// Start adds the caller's task to the group with the given CPU work,
// overwriting whatever t recorded of an earlier run. onDone runs (in
// virtual time, inside the pool's event) when the work completes; it may
// start further tasks, t included. Work <= 0 completes immediately.
// Starting a task that is still running, or on a closed group, is a bug
// and panics.
func (g *Group) Start(t *Task, work time.Duration, onDone func()) {
	if t.group != nil && !t.done {
		panic(fmt.Sprintf("cpusched: task started twice (group %q)", t.group.label))
	}
	if g.closed {
		panic(fmt.Sprintf("cpusched: task started on closed group %q", g.label))
	}
	*t = Task{group: g, remaining: float64(work), onDone: onDone}
	if work <= 0 {
		t.remaining = 0
	}
	p := g.pool
	p.advance()
	g.tasks = append(g.tasks, t)
	if !g.runnable {
		p.enqueue(g)
	}
	p.poke()
}

// Close retires the group: no task may start in it again. Closing a
// group with runnable tasks returns an error and leaves it open; closing
// it again does nothing.
func (g *Group) Close() error {
	if len(g.tasks) > 0 {
		return fmt.Errorf("cpusched: close group %q with %d runnable tasks", g.label, len(g.tasks))
	}
	g.closed = true
	return nil
}

// Discipline divides cores among the runnable tasks of a pool.
type Discipline interface {
	// Name identifies the discipline in experiment output.
	Name() string
	// Allocate writes the rate of each task in groups, the pool's groups
	// with tasks in creation order. The sum of rates must not exceed
	// cores, and no single task's rate may exceed 1. It returns a horizon:
	// a duration after which the allocation must be recomputed even if no
	// task arrives or completes (0 means no horizon). scratch is the
	// calling pool's, so a stateless discipline value can serve many pools
	// and still reuse its working memory from one call to the next.
	Allocate(cores float64, groups []*Group, scratch *Scratch) time.Duration
}

// Scratch is the working memory a Pool lends its Discipline for the length
// of one Allocate call.
type Scratch struct {
	demands []demand  // FairShare: groups with runnable tasks
	levels  [][]*Task // MLFQ: tasks by priority level
}

// Pool models the CPU cores of one worker node.
//
// It tracks only the groups that have tasks: runnable, kept in creation
// order, which is the order every pass visits them in — the order of the
// busy integral's float sums, of FairShare's ties and of completion
// callbacks. A node has a few groups with work among many idle ones, and
// an idle group costs a poke nothing.
type Pool struct {
	eng      *sim.Engine
	cores    float64
	disc     Discipline
	runnable []*Group // groups with tasks, by ord
	nextOrd  uint64
	last     sim.Time
	wake     sim.Timer // the next completion or horizon; fires poke
	busyNsCs float64   // core-nanoseconds consumed (CPU busy integral)
	inPoke   bool
	repoke   bool
	scratch  Scratch
	finished []*Task // completeFinished's scratch
}

// NewPool creates a pool with the given core count and discipline.
// It returns an error if cores is not positive or disc is nil.
func NewPool(eng *sim.Engine, cores float64, disc Discipline) (*Pool, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cpusched: cores must be positive, got %v", cores)
	}
	if disc == nil {
		return nil, fmt.Errorf("cpusched: discipline must not be nil")
	}
	p := &Pool{eng: eng, cores: cores, disc: disc, last: eng.Now()}
	p.wake.Init(eng, p.poke)
	return p, nil
}

// Discipline reports the pool's scheduling discipline.
func (p *Pool) Discipline() Discipline { return p.disc }

// NewGroup adds a scheduling group (a container) with the given core cap
// (<= 0 means unlimited). The label is for diagnostics only.
func (p *Pool) NewGroup(label string, cap float64) *Group {
	p.nextOrd++
	g := &Group{pool: p, cap: cap, label: label, ord: p.nextOrd}
	g.tasks = g.inline[:0]
	return g
}

// enqueue inserts g into the runnable list at its creation-order place.
func (p *Pool) enqueue(g *Group) {
	i := p.runnableIndex(g)
	p.runnable = slices.Insert(p.runnable, i, g)
	g.runnable = true
}

// runnableIndex reports where g sits (or belongs) in the runnable list.
func (p *Pool) runnableIndex(g *Group) int {
	i, _ := slices.BinarySearchFunc(p.runnable, g.ord, func(e *Group, ord uint64) int { return cmp.Compare(e.ord, ord) })
	return i
}

// BusyCoreSeconds reports the integral of allocated core time since the
// pool was created, in core-seconds. Sampling this at intervals yields CPU
// utilisation.
func (p *Pool) BusyCoreSeconds() float64 {
	p.advance()
	return p.busyNsCs / float64(time.Second)
}

// Reallocate forces the discipline to re-divide cores immediately. Call it
// after mutating discipline parameters (e.g. adaptive MLFQ thresholds).
func (p *Pool) Reallocate() { p.poke() }

// advance integrates progress for the virtual time elapsed since the last
// update at the current allocation.
func (p *Pool) advance() {
	now := p.eng.Now()
	dt := float64(now.Sub(p.last))
	p.last = now
	if dt <= 0 {
		return
	}
	for _, g := range p.runnable {
		for _, t := range g.tasks {
			if t.rate <= 0 {
				continue
			}
			used := t.rate * dt
			if used > t.remaining {
				used = t.remaining
			}
			t.remaining -= used
			t.consumed += used
			p.busyNsCs += used
		}
	}
}

// poke re-runs the discipline and schedules the next pool event. It is
// re-entrancy safe: callbacks fired during completion processing that
// mutate the task set coalesce into one trailing reallocation.
func (p *Pool) poke() {
	if p.inPoke {
		p.repoke = true
		return
	}
	p.inPoke = true
	defer func() { p.inPoke = false }()
	for {
		p.repoke = false
		p.advance()
		p.completeFinished()
		if p.repoke {
			// A completion callback mutated the task set; fold its
			// reallocation into this pass.
			continue
		}
		horizon := p.disc.Allocate(p.cores, p.runnable, &p.scratch)
		if next := p.nextEventDelay(horizon); next >= 0 {
			p.wake.Reset(next)
		} else {
			p.wake.Stop()
		}
		return
	}
}

// completeFinished pops tasks whose remaining work reached zero and fires
// their callbacks, group by group in creation order. Callbacks may start
// tasks, which sets p.repoke via the inPoke guard and may queue a group
// ahead of the one being visited, so the walk finds its place again after
// each group's callbacks. Groups left without tasks leave the runnable list
// in one sweep at the end: until then the indices only ever grow.
func (p *Pool) completeFinished() {
	emptied := false
	for i := 0; i < len(p.runnable); i++ {
		g := p.runnable[i]
		kept := g.tasks[:0]
		finished := p.finished[:0]
		for _, t := range g.tasks {
			if t.remaining <= completionEpsilon {
				t.remaining = 0
				t.done = true
				t.rate = 0
				finished = append(finished, t)
			} else {
				kept = append(kept, t)
			}
		}
		if len(finished) == 0 {
			continue
		}
		// Zero the trailing slots so finished tasks are not retained.
		clear(g.tasks[len(kept):])
		g.tasks = kept
		emptied = emptied || len(kept) == 0
		for _, t := range finished {
			if t.onDone != nil {
				t.onDone()
			}
		}
		// Callbacks cannot re-enter (poke's guard), so the scratch is still
		// this pass's; drop its pointers before lending it to the next group.
		clear(finished)
		p.finished = finished[:0]
		i = p.runnableIndex(g)
	}
	if emptied {
		p.dropIdle()
	}
}

// dropIdle removes the groups without tasks from the runnable list.
func (p *Pool) dropIdle() {
	kept := p.runnable[:0]
	for _, g := range p.runnable {
		if len(g.tasks) > 0 {
			kept = append(kept, g)
		} else {
			g.runnable = false
		}
	}
	clear(p.runnable[len(kept):])
	p.runnable = kept
}

// nextEventDelay computes when the pool must wake up next: the earliest
// task completion under current rates, bounded by the discipline horizon.
// It returns a negative delay when no wake-up is needed.
func (p *Pool) nextEventDelay(horizon time.Duration) time.Duration {
	best := -1.0
	for _, g := range p.runnable {
		for _, t := range g.tasks {
			if t.rate <= 0 {
				continue
			}
			eta := t.remaining / t.rate
			if best < 0 || eta < best {
				best = eta
			}
		}
	}
	if horizon > 0 && (best < 0 || float64(horizon) < best) {
		best = float64(horizon)
	}
	if best < 0 {
		return -1
	}
	d := time.Duration(best)
	// Round up so the woken event observes the completion, not an instant
	// just before it.
	if float64(d) < best {
		d++
	}
	return d
}
