package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faasbatch/internal/obs"
)

// chromeEvent mirrors the fields of one exported trace event the tests
// care about.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args"`
}

func decodeChromeTrace(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var out struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", out.DisplayTimeUnit)
	}
	return out.TraceEvents
}

// TestTraceRoundTripSim runs a simulated experiment with tracing and
// checks that the exported Chrome trace reconstructs every record's
// four-component decomposition exactly, on the virtual timeline.
func TestTraceRoundTripSim(t *testing.T) {
	tr := smallIOTrace(t, 40)
	tracer, err := obs.NewTracer(obs.TracerConfig{
		Capacity: 4 * tr.Len(),
		Clock:    func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 3, Tracer: tracer})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	events := decodeChromeTrace(t, buf.Bytes())
	if len(events) != 4*len(res.Records) {
		t.Fatalf("%d events, want 4 per record (%d records)", len(events), len(res.Records))
	}

	// EmitSpans assigns trace IDs in record order, so tid i+1 is record i.
	type decomp struct {
		start, total float64
		parts        map[string]float64
	}
	perTrace := map[uint64]*decomp{}
	lastTs := -1.0
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %q phase = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < lastTs {
			t.Fatalf("events not sorted by ts: %v after %v", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		d := perTrace[ev.Tid]
		if d == nil {
			d = &decomp{start: ev.Ts, parts: map[string]float64{}}
			perTrace[ev.Tid] = d
		}
		d.parts[ev.Name] += ev.Dur
		d.total += ev.Dur
	}
	if len(perTrace) != len(res.Records) {
		t.Fatalf("%d traces, want %d", len(perTrace), len(res.Records))
	}
	toMicros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, rec := range res.Records {
		d := perTrace[uint64(i+1)]
		if d == nil {
			t.Fatalf("record %d has no trace", i)
		}
		for name, want := range map[string]time.Duration{
			obs.SpanScheduling: rec.Sched,
			obs.SpanColdStart:  rec.ColdStart,
			obs.SpanQueuing:    rec.Queue,
			obs.SpanExecution:  rec.Exec,
		} {
			if got := d.parts[name]; got != toMicros(want) {
				t.Errorf("record %d %s = %vµs, want %vµs", i, name, got, toMicros(want))
			}
		}
		// Summing four float64 durations picks up rounding in the last
		// bits; the individual components above compare exactly.
		if diff := d.total - toMicros(rec.Total()); math.Abs(diff) > 0.001 {
			t.Errorf("record %d total %vµs != %vµs", i, d.total, toMicros(rec.Total()))
		}
		if d.start != toMicros(rec.Arrive.Duration()) {
			t.Errorf("record %d first span at %vµs, arrived at %vµs", i, d.start, toMicros(rec.Arrive.Duration()))
		}
	}
}

// TestEmitSpansSampling checks the tracer's sampling carries through span
// emission: 1-in-3 sampling keeps a third of the records.
func TestEmitSpansSampling(t *testing.T) {
	tr := smallIOTrace(t, 30)
	tracer, err := obs.NewTracer(obs.TracerConfig{
		Capacity: 4 * tr.Len(),
		Sample:   3,
		Clock:    func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	res, err := Run(Config{Policy: PolicyVanilla, Trace: tr, Seed: 5, Tracer: tracer})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	traces := map[uint64]bool{}
	for _, s := range tracer.Snapshot() {
		traces[s.Trace] = true
	}
	want := len(res.Records) / 3
	if len(traces) != want {
		t.Errorf("%d traces with 1-in-3 sampling of %d records, want %d", len(traces), len(res.Records), want)
	}
}

// TestTraceDirSink checks SetTraceDir writes one valid trace file per run.
func TestTraceDirSink(t *testing.T) {
	dir := t.TempDir()
	SetTraceDir(dir)
	defer SetTraceDir("")

	tr := smallIOTrace(t, 10)
	res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "run-*-faasbatch.trace.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("trace files = %v (err %v), want one", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	events := decodeChromeTrace(t, data)
	if len(events) != 4*len(res.Records) {
		t.Fatalf("%d events in sink file, want %d", len(events), 4*len(res.Records))
	}
}
