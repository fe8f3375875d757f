package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultLatencyBuckets are the latency histogram upper bounds in
// seconds, spanning sub-millisecond handler times to multi-second
// cold-start tails.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultGroupSizeBuckets are the batch-group-size histogram upper
// bounds (invocations per dispatched group).
var DefaultGroupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket histogram in the Prometheus style: one
// counter per upper bound plus an implicit +Inf bucket, a running sum and
// a total count. It is not safe for concurrent use; Metrics and the
// latency handles it gives out serialise access for the platform.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, the last is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly increasing at index %d", i)
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}, nil
}

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
	h.sum += v
	h.count++
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Cumulative reports the cumulative bucket counts, one per bound plus the
// trailing +Inf bucket (which equals Count).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// latencyComponents are the component labels of one function's latency
// histograms, in exposition (name) order; the constants index it.
var latencyComponents = [...]string{SpanColdStart, ComponentEndToEnd, SpanExecution, SpanQueuing, SpanScheduling}

const (
	latCold = iota
	latEndToEnd
	latExec
	latQueue
	latSched
)

// FunctionLatency is one function's latency histograms — the four
// components of §IV's decomposition and their end-to-end sum — behind the
// function's own lock. The platform resolves it once at Register, so
// settling an invocation takes no lock shared with another function and
// looks nothing up. The counters come with the first observation: a
// function that is registered and never invoked holds none. It is safe for
// concurrent use, and nil-safe.
type FunctionLatency struct {
	mu sync.Mutex
	h  [len(latencyComponents)]Histogram // indexed like latencyComponents
}

// Observe counts one settled invocation: each component and their sum.
func (l *FunctionLatency) Observe(b Breakdown) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.h[0].counts == nil {
		// The five histograms share one block of counters.
		n := len(l.h[0].bounds) + 1
		counts := make([]uint64, len(l.h)*n)
		for i := range l.h {
			l.h[i].counts = counts[i*n : (i+1)*n : (i+1)*n]
		}
	}
	l.h[latCold].Observe(b.ColdStart.Seconds())
	l.h[latEndToEnd].Observe(b.Total().Seconds())
	l.h[latExec].Observe(b.Exec.Seconds())
	l.h[latQueue].Observe(b.Queue.Seconds())
	l.h[latSched].Observe(b.Sched.Seconds())
	l.mu.Unlock()
}

// ForwardLatency is one worker's routed forward latency histogram behind
// its own lock, resolved once per worker by the router. It is safe for
// concurrent use, and nil-safe.
type ForwardLatency struct {
	mu sync.Mutex
	h  *Histogram
}

// Observe counts one forward attempt's latency.
func (l *ForwardLatency) Observe(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.h.Observe(d.Seconds())
	l.mu.Unlock()
}

// Metrics aggregates the platform's labeled histograms: per-function,
// per-component latency and the batch group size. It is safe for
// concurrent use. Its lock guards the registry maps and the group-size
// histogram; the latency handles it gives out lock only themselves.
type Metrics struct {
	mu        sync.Mutex
	latBounds []float64 // the latency histograms' shared, validated bounds
	lat       map[string]*FunctionLatency
	fwd       map[string]*ForwardLatency // per-worker forward latency (router)
	groupSize *Histogram
}

// mustHistogram builds a histogram over bounds that are valid by
// construction (the package defaults).
func mustHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// NewMetrics builds a registry with the default buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		latBounds: mustHistogram(DefaultLatencyBuckets).bounds,
		lat:       make(map[string]*FunctionLatency),
		fwd:       make(map[string]*ForwardLatency),
		groupSize: mustHistogram(DefaultGroupSizeBuckets),
	}
}

// Function returns fn's latency handle, creating it on first use. Its
// series appear in WritePrometheus once it has an observation. Component
// labels follow the obs span vocabulary (SpanScheduling, ...).
func (m *Metrics) Function(fn string) *FunctionLatency {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.lat[fn]
	if !ok {
		l = &FunctionLatency{}
		for i := range l.h {
			l.h[i].bounds = m.latBounds
		}
		m.lat[fn] = l
	}
	return l
}

// Forward returns the forward-latency handle of one worker
// (internal/router), creating it on first use. Workers appear as
// histogram labels in WritePrometheus once observed, so per-worker tails
// stay visible behind the router.
func (m *Metrics) Forward(worker string) *ForwardLatency {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.fwd[worker]
	if !ok {
		l = &ForwardLatency{h: mustHistogram(m.latBounds)}
		m.fwd[worker] = l
	}
	return l
}

// ObserveGroupSize counts one dispatched batch group's size.
func (m *Metrics) ObserveGroupSize(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupSize.Observe(float64(n))
}

// formatBound renders a bucket bound the Prometheus way.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// writeHistogram renders one labeled histogram series. labels is either
// empty or a comma-joined list of label="value" pairs.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	sumLabels := ""
	if labels != "" {
		sumLabels = "{" + labels + "}"
	}
	cum := h.Cumulative()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatBound(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sumLabels, strconv.FormatFloat(h.sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sumLabels, h.count)
}

// WritePrometheus renders every histogram in the Prometheus text
// exposition format, deterministically ordered. A series appears with its
// first observation.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.\n")
	fmt.Fprintf(w, "# TYPE faasbatch_latency_seconds histogram\n")
	for _, fn := range sortedKeys(m.lat) {
		l := m.lat[fn]
		l.mu.Lock()
		if l.h[latEndToEnd].count > 0 {
			for i, component := range latencyComponents {
				labels := fmt.Sprintf("fn=%q,component=%q", fn, component)
				writeHistogram(w, "faasbatch_latency_seconds", labels, &l.h[i])
			}
		}
		l.mu.Unlock()
	}
	header := false
	for _, wk := range sortedKeys(m.fwd) {
		l := m.fwd[wk]
		l.mu.Lock()
		if l.h.count > 0 {
			if !header {
				fmt.Fprintf(w, "# HELP faasbatch_forward_latency_seconds Per-worker routed forward latency.\n")
				fmt.Fprintf(w, "# TYPE faasbatch_forward_latency_seconds histogram\n")
				header = true
			}
			writeHistogram(w, "faasbatch_forward_latency_seconds", fmt.Sprintf("worker=%q", wk), l.h)
		}
		l.mu.Unlock()
	}
	fmt.Fprintf(w, "# HELP faasbatch_group_size Invocations per dispatched batch group.\n")
	fmt.Fprintf(w, "# TYPE faasbatch_group_size histogram\n")
	writeHistogram(w, "faasbatch_group_size", "", m.groupSize)
}

// sortedKeys lists a registry map's keys in exposition order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
