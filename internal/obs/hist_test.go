package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=5: +{3}; +Inf: +{100}.
	want := []uint64{2, 4, 5, 6}
	got := h.Cumulative()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	if h.Count() != 6 || h.sum != 108 {
		t.Fatalf("count = %d sum = %v", h.Count(), h.sum)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Function("f").Observe(Breakdown{Exec: time.Second})
	m.ObserveGroupSize(3)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil metrics wrote %q", buf.String())
	}
}

func TestMetricsPrometheusOutput(t *testing.T) {
	m := NewMetrics()
	fib := m.Function("fib")
	fib.Observe(Breakdown{Sched: 2 * time.Millisecond, Exec: 30 * time.Millisecond})
	fib.Observe(Breakdown{Sched: 3 * time.Millisecond, ColdStart: 200 * time.Millisecond, Queue: time.Millisecond, Exec: 70 * time.Millisecond})
	m.Function("echo").Observe(Breakdown{Exec: time.Millisecond})
	m.Function("idle") // resolved, never observed: no series
	if m.Function("fib") != fib {
		t.Fatal("Function resolved a second handle for one name")
	}
	m.ObserveGroupSize(1)
	m.ObserveGroupSize(5)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP faasbatch_latency_seconds ",
		"# TYPE faasbatch_latency_seconds histogram",
		`faasbatch_latency_seconds_bucket{fn="fib",component="execution",le="0.05"} 1`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="execution",le="+Inf"} 2`,
		`faasbatch_latency_seconds_count{fn="fib",component="execution"} 2`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="scheduling",le="0.0025"} 1`,
		`faasbatch_latency_seconds_count{fn="fib",component="scheduling"} 2`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="cold-start",le="0.1"} 1`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="queuing",le="0.001"} 2`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="end-to-end",le="0.05"} 1`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="end-to-end",le="0.5"} 2`,
		`faasbatch_latency_seconds_sum{fn="fib",component="end-to-end"} 0.306`,
		`faasbatch_latency_seconds_count{fn="echo",component="execution"} 1`,
		"# TYPE faasbatch_group_size histogram",
		`faasbatch_group_size_bucket{le="1"} 1`,
		`faasbatch_group_size_bucket{le="8"} 2`,
		"faasbatch_group_size_count 2",
		"faasbatch_group_size_sum 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: echo sorts before fib.
	if strings.Index(out, `fn="echo"`) > strings.Index(out, `fn="fib"`) {
		t.Error("series not sorted by function")
	}
	// Components sort by name within a function.
	order := []string{"cold-start", "end-to-end", "execution", "queuing", "scheduling"}
	for i := 1; i < len(order); i++ {
		a := strings.Index(out, `fn="fib",component="`+order[i-1]+`"`)
		b := strings.Index(out, `fn="fib",component="`+order[i]+`"`)
		if a < 0 || b < 0 || a > b {
			t.Errorf("component %s does not precede %s", order[i-1], order[i])
		}
	}
	if strings.Contains(out, `fn="idle"`) {
		t.Error("a function with no observation has series")
	}
	// HELP/TYPE emitted once per family.
	if strings.Count(out, "# TYPE faasbatch_latency_seconds histogram") != 1 {
		t.Error("TYPE line repeated")
	}
}

func TestObserveLatencySteadyStateNoAlloc(t *testing.T) {
	m := NewMetrics()
	f, w := m.Function("f"), m.Forward("w")
	allocs := testing.AllocsPerRun(1000, func() {
		f.Observe(Breakdown{Sched: time.Millisecond, Queue: time.Microsecond, Exec: time.Millisecond})
		w.Observe(time.Millisecond)
		m.ObserveGroupSize(4)
	})
	if allocs != 0 {
		t.Fatalf("steady-state observe allocates %v per op, want 0", allocs)
	}
}

func TestMetricsForwardHistogram(t *testing.T) {
	var nilM *Metrics
	nilM.Forward("w1").Observe(time.Second) // nil-safe

	m := NewMetrics()
	m.Forward("w0") // resolved, never observed: no series
	var empty bytes.Buffer
	m.WritePrometheus(&empty)
	if strings.Contains(empty.String(), "faasbatch_forward_latency_seconds") {
		t.Fatal("forward family emitted with no observations")
	}

	m.Forward("w2").Observe(30 * time.Millisecond)
	m.Forward("w2").Observe(70 * time.Millisecond)
	m.Forward("w1").Observe(2 * time.Millisecond)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE faasbatch_forward_latency_seconds histogram",
		`faasbatch_forward_latency_seconds_bucket{worker="w2",le="0.05"} 1`,
		`faasbatch_forward_latency_seconds_count{worker="w2"} 2`,
		`faasbatch_forward_latency_seconds_count{worker="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `worker="w0"`) {
		t.Error("a worker with no forward has series")
	}
	// Deterministic ordering: w1 sorts before w2.
	if strings.Index(out, `worker="w1"`) > strings.Index(out, `worker="w2"`) {
		t.Error("forward series not sorted by worker")
	}
}

// TestFunctionLatencyScrapeIsConsistent: a scrape racing observers reads
// each histogram under its handle's lock, so every series it renders has
// _count equal to its +Inf bucket and all five components of a function
// agree on the count.
func TestFunctionLatencyScrapeIsConsistent(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, fn := range []string{"a", "b"} {
		l := m.Function(fn)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						l.Observe(Breakdown{Sched: time.Millisecond, Queue: time.Microsecond, Exec: 3 * time.Millisecond})
					}
				}
			}()
		}
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		m.WritePrometheus(&buf)
		fams, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		inf, count := map[string]float64{}, map[string]float64{}
		for _, f := range fams {
			if f.Name != "faasbatch_latency_seconds" {
				continue
			}
			for _, s := range f.Samples {
				switch {
				case strings.HasSuffix(s.Name, "_bucket") && strings.Contains(s.Labels, `le="+Inf"`):
					inf[strings.TrimSuffix(s.Labels, `,le="+Inf"`)] = s.Value
				case strings.HasSuffix(s.Name, "_count"):
					count[s.Labels] = s.Value
				}
			}
		}
		for labels, n := range count {
			if inf[labels] != n {
				t.Fatalf("%s: _count %v, +Inf bucket %v", labels, n, inf[labels])
			}
			fn := labels[:strings.Index(labels, ",")]
			if e2e := count[fn+`,component="end-to-end"`]; e2e != n {
				t.Fatalf("%s: count %v, the function's end-to-end count %v", labels, n, e2e)
			}
		}
	}
	close(stop)
	wg.Wait()
}
