package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The benchmark reads bench/workloads/... and BENCHMARK.json relative to
// the repository root, where go run ./bench starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	// p99 of 1000 is the 990th value, with exactly ten beyond it.
	got, err := percentile(sorted, 0.99, 10)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", got, err)
	}
	if _, err := percentile(sorted[:999], 0.99, 10); err == nil {
		t.Fatal("p99 of 999 samples has nine beyond it and must be an error")
	}
	if got, err := percentile(sorted, 0.50, 10); err != nil || got != 500 {
		t.Fatalf("p50 of 1..1000 = %d, %v; want 500", got, err)
	}
	if _, err := percentile(nil, 0.50, 1); err == nil {
		t.Fatal("a percentile of nothing must be an error")
	}
}

// Which laps of a closed loop are measured is the pacer's decision alone:
// those with a fast pacing on both sides.
func TestCalmSlicesFollowThePacer(t *testing.T) {
	ms := time.Millisecond
	got := calmLaps([]time.Duration{10 * ms, 11 * ms, 10 * ms, 15 * ms, 10 * ms, 10 * ms})
	if want := []bool{true, true, false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("calm laps %v, want %v", got, want)
	}
	// No lap has a fast pacing on both sides: all of them are measured.
	got = calmLaps([]time.Duration{10 * ms, 15 * ms, 10 * ms, 15 * ms})
	if want := []bool{true, true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("calm laps %v, want %v", got, want)
	}
	// No pacer, one lap.
	if got := calmLaps(make([]time.Duration, 2)); !reflect.DeepEqual(got, []bool{true}) {
		t.Errorf("calm laps without a pacer %v, want the one", got)
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	fns := echoFnNames()
	a, b, c := genRequests(7, 256, fns), genRequests(7, 256, fns), genRequests(8, 256, fns)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genRequests differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("genRequests is the same for seeds 7 and 8")
	}
	for i, q := range a {
		if !replyOK([]byte(`{"fn":"x","result":`+string(q.payload)+`,"containerId":"c","worker":"w1"}`), q.payload, true) {
			t.Fatalf("request %d: replyOK rejects a faithful echo of %s", i, q.payload)
		}
		if replyOK([]byte(`{"fn":"x","result":`+string(q.payload[:len(q.payload)-1])+`x,"containerId":"c"}`), q.payload, false) {
			t.Fatalf("request %d: replyOK accepts a corrupted echo", i)
		}
	}

	pa, pb := pickers(7, 2), pickers(7, 2)
	for i := 0; i < 100; i++ {
		if pa[0].Intn(4096) != pb[0].Intn(4096) || pa[1].Intn(4096) != pb[1].Intn(4096) {
			t.Fatal("function pick streams differ between two runs with one seed")
		}
	}

	s1, err := burstSchedule(7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := burstSchedule(7, 2*time.Second)
	s3, _ := burstSchedule(8, 2*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("burstSchedule differs between two calls with one seed")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("burstSchedule is the same for seeds 7 and 8")
	}
	if len(s1) != 2*burstRate {
		t.Fatalf("burstSchedule over 2s has %d arrivals, want %d", len(s1), 2*burstRate)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].due < s1[i-1].due {
			t.Fatalf("burstSchedule arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func names(ds []decl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name + " " + d.Unit
	}
	return out
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkSpec(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %g, program measures for %d", spec.RunSeconds, runSeconds)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	fromJSON := func(ds []boundDecl) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.Name + " " + d.Unit
		}
		return out
	}
	if got, want := fromJSON(spec.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, want)
	}
	if got, want := fromJSON(spec.PerLayer), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, want)
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", d.Name, d.Bound, d.Better)
		}
	}
}

// lastLine parses the JSON result line a pass printed last.
func lastLine(t *testing.T, out *bytes.Buffer) line {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var l line
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return l
}

// declared checks that a result line holds exactly the declared metrics.
func declared(t *testing.T, l line, ds []decl) {
	t.Helper()
	if len(l.Metrics) != len(ds) {
		t.Errorf("%d metrics printed, %d declared", len(l.Metrics), len(ds))
	}
	for _, d := range ds {
		v, ok := l.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s printed in %q, declared in %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs both passes of all six workloads at a
// twentieth of their size (sim_fleet on its smoke scenario): every output check must pass, and each pass
// must print exactly the metrics BENCHMARK.json declares for it.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	o := options{seed: 3, seconds: 0.6, outDir: t.TempDir()}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, ok, err := endToEndPass(&out, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("end-to-end pass incorrect: %d of %d failed, %q", res.failed, res.attempted, res.problems)
			}
			l := lastLine(t, &out)
			declared(t, l, endToEnd)
			for name, v := range l.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %g, must be positive", name, v.Value)
				}
			}

			out.Reset()
			ok, err = perLayerPass(&out, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("traced pass incorrect:\n%s", out.String())
			}
			declared(t, lastLine(t, &out), perLayer)
			raw, err := os.ReadFile(o.outDir + "/" + w.name + ".trace.json")
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace file does not load: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
}
