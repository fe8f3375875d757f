package cpusched

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// FairShare is a max-min fair processor-sharing discipline, the standard
// fluid approximation of the Linux CFS scheduler. Cores are divided fairly
// across groups (containers), honouring each group's core cap, and evenly
// among the tasks inside each group (each task capped at one core).
type FairShare struct{}

var _ Discipline = FairShare{}

// Name implements Discipline.
func (FairShare) Name() string { return "fair-share" }

// demand is one group's claim in FairShare's water-filling.
type demand struct {
	g     *Group
	limit float64
}

// Allocate implements Discipline using two-level water-filling.
func (FairShare) Allocate(cores float64, groups []*Group, scratch *Scratch) time.Duration {
	active := scratch.demands[:0]
	for _, g := range groups {
		n := len(g.tasks)
		if n == 0 {
			continue
		}
		// A group can use at most one core per runnable task, and no more
		// than its cpuset cap.
		limit := float64(n)
		if g.cap > 0 && g.cap < limit {
			limit = g.cap
		}
		active = append(active, demand{g: g, limit: limit})
	}
	scratch.demands = active
	if len(active) == 0 {
		return 0
	}
	// Max-min fairness: groups with small demand are satisfied first and
	// their leftover is redistributed among the rest. The sort is stable,
	// so equal demands keep pool order and every rate below is reproducible.
	slices.SortStableFunc(active, func(a, b demand) int { return cmp.Compare(a.limit, b.limit) })
	remaining := cores
	left := len(active)
	for _, d := range active {
		share := remaining / float64(left)
		alloc := d.limit
		if share < alloc {
			alloc = share
		}
		remaining -= alloc
		left--
		// Even split inside the group; alloc <= len(tasks) guarantees the
		// per-task rate never exceeds one core.
		rate := alloc / float64(len(d.g.tasks))
		for _, t := range d.g.tasks {
			t.rate = rate
		}
	}
	return 0
}

// MLFQ approximates the SFS user-space scheduler with a multi-level
// feedback queue: a task's priority level is determined by how much CPU it
// has consumed so far. Tasks at lower levels (short functions) receive
// cores before tasks at higher levels (long functions), reproducing SFS's
// short-job bias — short functions finish fast at the expense of long ones.
//
// Thresholds are cumulative consumed-CPU boundaries: a task with consumed
// CPU below Thresholds[0] is at level 0, below Thresholds[1] at level 1,
// and so on; past the last threshold it runs in the background level.
//
// MLFQ deliberately ignores group caps: SFS schedules invocations onto
// cores directly in user space, bypassing container cgroup shares.
type MLFQ struct {
	// Thresholds are the cumulative consumed-CPU level boundaries.
	// They must be strictly increasing.
	Thresholds []time.Duration
}

var _ Discipline = (*MLFQ)(nil)

// NewMLFQ returns an MLFQ with the default SFS-like level boundaries.
func NewMLFQ() *MLFQ {
	return &MLFQ{Thresholds: []time.Duration{50 * time.Millisecond, 250 * time.Millisecond}}
}

// Name implements Discipline.
func (m *MLFQ) Name() string { return "mlfq" }

// SetBaseQuantum rescales the level boundaries to a new base quantum,
// keeping their ratios. SFS adapts the quantum to the observed request
// inter-arrival time; call Pool.Reallocate afterwards so running tasks
// re-level immediately.
func (m *MLFQ) SetBaseQuantum(q time.Duration) error {
	if q <= 0 {
		return fmt.Errorf("cpusched: mlfq base quantum must be positive, got %v", q)
	}
	if len(m.Thresholds) == 0 {
		return fmt.Errorf("cpusched: mlfq has no thresholds to rescale")
	}
	base := m.Thresholds[0]
	if base <= 0 {
		return fmt.Errorf("cpusched: mlfq first threshold must be positive, got %v", base)
	}
	scale := float64(q) / float64(base)
	for i := range m.Thresholds {
		m.Thresholds[i] = time.Duration(float64(m.Thresholds[i]) * scale)
	}
	return nil
}

// BaseQuantum reports the first level boundary.
func (m *MLFQ) BaseQuantum() time.Duration {
	if len(m.Thresholds) == 0 {
		return 0
	}
	return m.Thresholds[0]
}

// level reports the priority level for a task with the given consumed CPU.
func (m *MLFQ) level(consumed float64) int {
	for i, th := range m.Thresholds {
		if consumed < float64(th) {
			return i
		}
	}
	return len(m.Thresholds)
}

// Allocate implements Discipline. Cores flow to the lowest occupied level
// first; leftover spills to the next level. The returned horizon is the
// earliest instant a running task crosses into the next level, at which
// point the allocation must be recomputed.
func (m *MLFQ) Allocate(cores float64, groups []*Group, scratch *Scratch) time.Duration {
	if len(scratch.levels) != len(m.Thresholds)+1 {
		scratch.levels = make([][]*Task, len(m.Thresholds)+1)
	}
	levels := scratch.levels
	for i := range levels {
		levels[i] = levels[i][:0]
	}
	for _, g := range groups {
		for _, t := range g.tasks {
			lv := m.level(t.consumed)
			levels[lv] = append(levels[lv], t)
			t.rate = 0
		}
	}
	remaining := cores
	for _, tasks := range levels {
		if len(tasks) == 0 || remaining <= 0 {
			continue
		}
		rate := remaining / float64(len(tasks))
		if rate > 1 {
			rate = 1
		}
		for _, t := range tasks {
			t.rate = rate
		}
		remaining -= rate * float64(len(tasks))
	}
	// Horizon: the soonest level-crossing among running tasks.
	best := time.Duration(0)
	for lv, tasks := range levels {
		if lv >= len(m.Thresholds) {
			break // background level has no next boundary
		}
		boundary := float64(m.Thresholds[lv])
		for _, t := range tasks {
			if t.rate <= 0 {
				continue
			}
			eta := time.Duration((boundary - t.consumed) / t.rate)
			if eta <= 0 {
				eta = 1
			}
			if best == 0 || eta < best {
				best = eta
			}
		}
	}
	return best
}
