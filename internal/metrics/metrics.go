// Package metrics provides the measurement vocabulary of the evaluation:
// per-invocation latency decomposition, empirical CDFs, duration histograms,
// periodic resource sampling, and plain-text table rendering for the
// figure/table reproductions.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"faasbatch/internal/sim"
)

// Record is the latency decomposition of one function invocation, following
// the paper's definition (§IV): scheduling latency (receipt until dispatch
// to a container, excluding cold start), cold-start latency (booting the
// selected container), queuing latency (waiting inside the container), and
// execution latency (CPU/IO time of the function body).
type Record struct {
	// ID uniquely identifies the invocation within a run.
	ID int64
	// Fn is the function name.
	Fn string
	// Arrive is the virtual time the platform received the invocation.
	Arrive sim.Time
	// Sched is the scheduling latency (cold start excluded).
	Sched time.Duration
	// Cold is the cold-start latency (zero on a warm start).
	Cold time.Duration
	// Queue is the in-container queuing latency.
	Queue time.Duration
	// Exec is the execution latency.
	Exec time.Duration
	// Container identifies the container that executed the invocation
	// (empty when the invocation never reached a container body, e.g. a
	// failure after its retry budget drained). Containers serve a single
	// function for their whole life, so records sharing a Container must
	// share Fn — the group-purity invariant the property tests check.
	Container string
	// Retries counts extra scheduling attempts the invocation needed
	// (container crashes, boot failures); zero on the happy path.
	Retries int
	// Failed reports that the invocation exhausted its retry budget and
	// completed as a failure. Failed records still carry the latency
	// accumulated until the final attempt was given up.
	Failed bool
}

// Total reports the end-to-end invocation latency.
func (r Record) Total() time.Duration { return r.Sched + r.Cold + r.Queue + r.Exec }

// Imbalance reports max/mean over per-entity counts (1.0 = perfectly
// balanced; 0 when counts are empty or sum to zero). The cluster applies
// it to per-node container provisioning, the live router to per-worker
// forwarded invocations — one skew definition across sim and live.
func Imbalance(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	maxC, sum := 0, 0
	for _, n := range counts {
		sum += n
		if n > maxC {
			maxC = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(maxC) / mean
}

// Component selects one latency component of a Record.
type Component int

// Latency components, in pipeline order.
const (
	Scheduling Component = iota + 1
	ColdStart
	Queuing
	Execution
	ExecPlusQueue
	EndToEnd
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case Scheduling:
		return "scheduling"
	case ColdStart:
		return "cold-start"
	case Queuing:
		return "queuing"
	case Execution:
		return "execution"
	case ExecPlusQueue:
		return "exec+queue"
	case EndToEnd:
		return "end-to-end"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// Of extracts the component's value from a record.
func (c Component) Of(r Record) time.Duration {
	switch c {
	case Scheduling:
		return r.Sched
	case ColdStart:
		return r.Cold
	case Queuing:
		return r.Queue
	case Execution:
		return r.Exec
	case ExecPlusQueue:
		return r.Exec + r.Queue
	case EndToEnd:
		return r.Total()
	default:
		return 0
	}
}

// Extract pulls one latency component out of a record slice.
func Extract(recs []Record, c Component) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = c.Of(r)
	}
	return out
}

// CDF is an empirical cumulative distribution over durations.
type CDF struct {
	sorted []time.Duration
}

// NewCDF builds a CDF from the given values (the input is not mutated).
func NewCDF(values []time.Duration) CDF {
	s := make([]time.Duration, len(values))
	copy(s, values)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return CDF{sorted: s}
}

// Len reports the number of underlying values.
func (c CDF) Len() int { return len(c.sorted) }

// P reports the q-quantile (0 <= q <= 1) using nearest-rank interpolation.
// It returns 0 for an empty CDF.
func (c CDF) P(q float64) time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// At reports the fraction of values <= v.
func (c CDF) At(v time.Duration) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	n := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > v })
	return float64(n) / float64(len(c.sorted))
}

// Min reports the smallest value (0 if empty).
func (c CDF) Min() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max reports the largest value (0 if empty).
func (c CDF) Max() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean reports the arithmetic mean (0 if empty).
func (c CDF) Mean() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.sorted {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(c.sorted)))
}
