// Package metrics is what the figure/table reproductions print: latency
// components of a decomposition, empirical CDFs and their plots, periodic
// resource sampling, and plain-text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"faasbatch/internal/obs"
)

// Component selects one latency component of a decomposition.
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

// Of extracts the component's value from a decomposition.
func (c Component) Of(b obs.Breakdown) time.Duration {
	switch c {
	case Scheduling:
		return b.Sched
	case ColdStart:
		return b.ColdStart
	case Queuing:
		return b.Queue
	case Execution:
		return b.Exec
	case ExecPlusQueue:
		return b.Exec + b.Queue
	case EndToEnd:
		return b.Total()
	default:
		return 0
	}
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
