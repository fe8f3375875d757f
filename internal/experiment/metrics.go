package experiment

// What the figure/table reproductions print: latency components of a
// decomposition, empirical CDFs (plotted in plot.go), periodic resource
// sampling, and plain-text tables.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/sim"
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

// Table renders aligned plain-text tables for the figure and table
// reproductions printed by cmd/faasbench.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	if err != nil {
		return fmt.Errorf("experiment: render table: %w", err)
	}
	return nil
}

// Sample is one periodic observation of worker-node resource state,
// mirroring the paper's once-per-second host sampling (§V-B).
type Sample struct {
	// T is the virtual time of the observation.
	T sim.Time
	// MemBytes is the node memory in use.
	MemBytes int64
	// Containers is the number of live (booting, idle or busy) containers.
	Containers int
	// BusyCoreSeconds is the cumulative CPU busy integral at T.
	BusyCoreSeconds float64
}

// Probe observes current node state for the sampler.
type Probe func(t sim.Time) Sample

// Sampler records node resource samples at a fixed virtual-time period.
type Sampler struct {
	ticker  *sim.Ticker
	probe   Probe
	samples []Sample
}

// StartSampler begins sampling with the given period. The first sample is
// taken immediately (at the current virtual time).
func StartSampler(eng *sim.Engine, period time.Duration, probe Probe) (*Sampler, error) {
	if probe == nil {
		return nil, fmt.Errorf("experiment: sampler probe must not be nil")
	}
	s := &Sampler{probe: probe}
	s.samples = append(s.samples, probe(eng.Now()))
	t, err := sim.NewTicker(eng, period, func(now sim.Time) {
		s.samples = append(s.samples, s.probe(now))
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: start sampler: %w", err)
	}
	s.ticker = t
	return s, nil
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.ticker.Stop() }

// Samples returns the recorded samples (shared slice; callers must not
// mutate it).
func (s *Sampler) Samples() []Sample { return s.samples }

// AvgMemBytes reports the time-averaged memory usage over the samples.
func (s *Sampler) AvgMemBytes() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, sm := range s.samples {
		sum += float64(sm.MemBytes)
	}
	return sum / float64(len(s.samples))
}

// PeakMemBytes reports the maximum sampled memory usage.
func (s *Sampler) PeakMemBytes() int64 {
	var peak int64
	for _, sm := range s.samples {
		if sm.MemBytes > peak {
			peak = sm.MemBytes
		}
	}
	return peak
}

// MiB expresses a byte count in mebibytes.
func MiB(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// GiB expresses a byte count in gibibytes.
func GiB(bytes int64) float64 { return float64(bytes) / (1 << 30) }
