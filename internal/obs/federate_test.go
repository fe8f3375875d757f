package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const memberA = `# HELP faasbatch_invocations_total Completed invocations.
# TYPE faasbatch_invocations_total counter
faasbatch_invocations_total 120
# HELP faasbatch_goroutines Goroutines currently running.
# TYPE faasbatch_goroutines gauge
faasbatch_goroutines 12
# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.
# TYPE faasbatch_latency_seconds histogram
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 3
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 5
faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.25
faasbatch_latency_seconds_count{fn="echo",component="execution"} 5
`

const memberB = `# HELP faasbatch_invocations_total Completed invocations.
# TYPE faasbatch_invocations_total counter
faasbatch_invocations_total 80
# HELP faasbatch_goroutines Goroutines currently running.
# TYPE faasbatch_goroutines gauge
faasbatch_goroutines 7
# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.
# TYPE faasbatch_latency_seconds histogram
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 1
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 2
faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.5
faasbatch_latency_seconds_count{fn="echo",component="execution"} 2
`

func parseDoc(t *testing.T, doc string) []*PromFamily {
	t.Helper()
	fams, err := ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

func TestParsePrometheus(t *testing.T) {
	fams := parseDoc(t, memberA)
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "faasbatch_invocations_total" || fams[0].Type != "counter" {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	if fams[0].Help == "" {
		t.Fatal("HELP text lost")
	}
	hist := fams[2]
	if hist.Type != "histogram" || len(hist.Samples) != 4 {
		t.Fatalf("histogram family = %+v, want 4 samples (_bucket x2, _sum, _count)", hist)
	}
	if hist.Samples[0].Labels != `fn="echo",component="execution",le="0.001"` {
		t.Fatalf("labels = %q", hist.Samples[0].Labels)
	}
}

func TestFederateMetrics(t *testing.T) {
	var out bytes.Buffer
	FederateMetrics(&out, []MemberMetrics{
		{Worker: "w1", Families: parseDoc(t, memberA)},
		{Worker: "w2", Families: parseDoc(t, memberB)},
	})
	doc := out.String()
	for _, want := range []string{
		// Counters sum: 120 + 80.
		"faasbatch_invocations_total 200\n",
		// Gauges tag per worker.
		`faasbatch_goroutines{worker="w1"} 12` + "\n",
		`faasbatch_goroutines{worker="w2"} 7` + "\n",
		// Histogram buckets merge bucket-wise: 3+1 and 5+2.
		`faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 4` + "\n",
		`faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 7` + "\n",
		`faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.75` + "\n",
		`faasbatch_latency_seconds_count{fn="echo",component="execution"} 7` + "\n",
		// Metadata is retained once.
		"# TYPE faasbatch_invocations_total counter\n",
		"# TYPE faasbatch_goroutines gauge\n",
		"# TYPE faasbatch_latency_seconds histogram\n",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("federated output missing %q\n---\n%s", want, doc)
		}
	}
	if n := strings.Count(doc, "# TYPE faasbatch_invocations_total counter"); n != 1 {
		t.Errorf("TYPE line emitted %d times, want once", n)
	}
	// The federated document must itself parse: federation is closed
	// over the exposition format.
	if _, err := ParsePrometheus(strings.NewReader(doc)); err != nil {
		t.Fatalf("federated output does not re-parse: %v", err)
	}
}

// TestFederationMatchesMergedHistogram checks federation through the
// platform's registry: federating N members' rendered latency histograms
// equals rendering one registry that observed the union of their data.
func TestFederationMatchesMergedHistogram(t *testing.T) {
	mk := func(values []time.Duration) *Metrics {
		m := NewMetrics()
		for _, v := range values {
			m.Function("echo").Observe(Breakdown{Exec: v})
		}
		return m
	}
	m1 := mk([]time.Duration{time.Millisecond, 40 * time.Millisecond, 3 * time.Second})
	m2 := mk([]time.Duration{2 * time.Millisecond, 90 * time.Millisecond})
	var d1, d2 bytes.Buffer
	m1.WritePrometheus(&d1)
	m2.WritePrometheus(&d2)
	f1, err := ParsePrometheus(&d1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParsePrometheus(&d2)
	if err != nil {
		t.Fatal(err)
	}
	var fed bytes.Buffer
	FederateMetrics(&fed, []MemberMetrics{{Worker: "w1", Families: f1}, {Worker: "w2", Families: f2}})

	union := mk([]time.Duration{time.Millisecond, 40 * time.Millisecond, 3 * time.Second, 2 * time.Millisecond, 90 * time.Millisecond})
	var want bytes.Buffer
	union.WritePrometheus(&want)
	wantFams, err := ParsePrometheus(&want)
	if err != nil {
		t.Fatal(err)
	}
	fedFams, err := ParsePrometheus(strings.NewReader(fed.String()))
	if err != nil {
		t.Fatal(err)
	}
	index := func(fams []*PromFamily) map[string]float64 {
		out := map[string]float64{}
		for _, f := range fams {
			if f.Name != "faasbatch_latency_seconds" {
				continue
			}
			for _, s := range f.Samples {
				out[s.Name+"{"+s.Labels+"}"] = s.Value
			}
		}
		return out
	}
	got, exp := index(fedFams), index(wantFams)
	if len(got) == 0 || len(exp) == 0 {
		t.Fatal("latency histogram series missing")
	}
	for k, v := range exp {
		if strings.Contains(k, "_sum{") {
			// The two paths add the same float64 terms in different
			// orders, so _sum matches to rounding, not bit-exactly.
			if diff := got[k] - v; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("federated %s = %v, want ~%v", k, got[k], v)
			}
			continue
		}
		if got[k] != v {
			t.Errorf("federated %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestHistogramMergeProperty: splitting any sample stream across N shard
// histograms and federating their expositions is indistinguishable from
// observing the union in one histogram — every bucket, the count and the
// sum preserved.
func TestHistogramMergeProperty(t *testing.T) {
	const header = "# HELP x Latency.\n# TYPE x histogram\n"
	render := func(h *Histogram) string {
		var b bytes.Buffer
		b.WriteString(header)
		writeHistogram(&b, "x", `fn="f"`, h)
		return b.String()
	}
	prop := func(raw []uint16, shardCount uint8) bool {
		union := mustHistogram(DefaultLatencyBuckets)
		parts := make([]*Histogram, int(shardCount%8)+1)
		for i := range parts {
			parts[i] = mustHistogram(DefaultLatencyBuckets)
		}
		for i, r := range raw {
			// Scaled uint16 values are exact binary fractions that
			// straddle the default bucket bounds, so every partial sum is
			// exact and the federated _sum must match bit for bit.
			v := float64(r) / 1024
			union.Observe(v)
			parts[i%len(parts)].Observe(v)
		}
		members := make([]MemberMetrics, len(parts))
		for i, h := range parts {
			members[i] = MemberMetrics{Worker: fmt.Sprint(i), Families: parseDoc(t, render(h))}
		}
		var fed bytes.Buffer
		FederateMetrics(&fed, members)
		return fed.String() == render(union)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRuntimeGauges(t *testing.T) {
	var out bytes.Buffer
	WriteRuntimeGauges(&out, "faasbatch")
	doc := out.String()
	for _, ex := range RuntimeSeries("faasbatch") {
		if want := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s ", ex.Name, ex.Help, ex.Name, ex.Kind, ex.Name); !strings.Contains(doc, want) {
			t.Errorf("missing %q", want)
		}
	}
	fams, err := ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("runtime gauges do not parse: %v", err)
	}
	byName := map[string]*PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	g := byName["faasbatch_goroutines"]
	if g == nil || len(g.Samples) != 1 || g.Samples[0].Value < 1 {
		t.Fatalf("faasbatch_goroutines = %+v, want a positive sample", g)
	}
	heap := byName["faasbatch_heap_alloc_bytes"]
	if heap == nil || len(heap.Samples) != 1 || heap.Samples[0].Value <= 0 {
		t.Fatalf("faasbatch_heap_alloc_bytes = %+v, want a positive sample", heap)
	}
}
