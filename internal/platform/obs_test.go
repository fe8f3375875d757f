package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
	"faasbatch/internal/obs/obstest"
	"faasbatch/internal/slo"
)

// numericStatFields walks a Stats value by reflection and returns every
// numeric field, nested structs included, as settable values keyed by
// their dot-separated path.
func numericStatFields(v reflect.Value, prefix string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		path := prefix + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			numericStatFields(f, path+".", out)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[path] = f
		}
	}
}

// TestMetricsConformance proves that every numeric Stats field — found by
// reflection, so new fields cannot silently skip /metrics — is read by a
// /metrics row of statSeries (a snapshot with only that field set moves
// some row off zero), and that every row is exported with HELP, TYPE and
// a sample line in the Prometheus text output.
func TestMetricsConformance(t *testing.T) {
	var probe Stats
	fields := map[string]reflect.Value{}
	numericStatFields(reflect.ValueOf(&probe).Elem(), "", fields)
	if len(fields) == 0 {
		t.Fatal("no numeric Stats fields found")
	}
	for path, f := range fields {
		probe = Stats{}
		if f.CanInt() {
			f.SetInt(7)
		} else {
			f.SetUint(7)
		}
		read := false
		for _, row := range statSeries {
			read = read || (row.Name != "" && row.Int(&probe) == 7)
		}
		if !read {
			t.Errorf("Stats field %s has no /metrics row in statSeries", path)
		}
	}
	for _, row := range statSeries {
		if row.Int == nil || row.Float != nil {
			t.Errorf("statSeries[%s%s]: want an Int row", row.Name, row.Key)
		}
		if row.Name == "" {
			continue
		}
		if row.Kind != obs.Counter && row.Kind != obs.Gauge {
			t.Errorf("statSeries[%s]: bad kind %q", row.Name, row.Kind)
		}
		if row.Help == "" {
			t.Errorf("statSeries[%s]: missing help", row.Name)
		}
	}

	p, srv := newHTTPServer(t)
	if r, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("5")}); r.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", r.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	out := string(body)
	st := p.Stats()
	for _, row := range statSeries {
		if row.Name == "" {
			continue
		}
		want := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s %d\n", row.Name, row.Help, row.Name, row.Kind, row.Name, row.Int(&st))
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Histograms: per-function latency components and the group size.
	for _, want := range []string{
		"# TYPE faasbatch_latency_seconds histogram",
		`faasbatch_latency_seconds_bucket{fn="double",component="execution",le="+Inf"} 1`,
		`faasbatch_latency_seconds_count{fn="double",component="end-to-end"} 1`,
		"# TYPE faasbatch_group_size histogram",
		"faasbatch_group_size_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Runtime gauges: the full obs.RuntimeSeries set, each with HELP,
	// TYPE and a sample line.
	for _, ex := range obs.RuntimeSeries("faasbatch") {
		if want := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s ", ex.Name, ex.Help, ex.Name, ex.Kind, ex.Name); !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// tracedPlatform builds a platform with an always-sampling wall tracer.
func tracedPlatform(t *testing.T) (*Platform, *obs.Tracer) {
	t.Helper()
	tracer, err := obs.NewWallTracer(1024, 1)
	if err != nil {
		t.Fatalf("NewWallTracer: %v", err)
	}
	cfg := quickConfig(ModeBatch)
	cfg.Tracer = tracer
	return newPlatform(t, cfg), tracer
}

// TestTraceRoundTripLive checks that a live invocation's spans reconstruct
// its reported four-component latency decomposition exactly: the spans are
// stamped from the same clock readings the Result is computed from.
func TestTraceRoundTripLive(t *testing.T) {
	p, tracer := tracedPlatform(t)
	if err := p.Register("sleepy", func(_ context.Context, _ *Invocation) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return "ok", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "sleepy", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.TraceID == 0 {
		t.Fatal("traced invocation has zero TraceID")
	}

	byName := map[string]obs.Span{}
	for _, s := range tracer.Snapshot() {
		if s.Trace == res.TraceID {
			byName[s.Name] = s
		}
	}
	want := map[string]time.Duration{
		obs.SpanScheduling: res.Sched,
		obs.SpanColdStart:  res.ColdStart,
		obs.SpanQueuing:    res.Queue,
		obs.SpanExecution:  res.Exec,
	}
	var sum time.Duration
	for name, dur := range want {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("trace %d missing %s span (have %v)", res.TraceID, name, byName)
		}
		if s.Dur() != dur {
			t.Errorf("%s span = %v, Result reports %v", name, s.Dur(), dur)
		}
		if s.Fn != "sleepy" || s.Container != res.ContainerID {
			t.Errorf("%s span labels = fn %q container %q", name, s.Fn, s.Container)
		}
		sum += s.Dur()
	}
	if sum != res.Total() {
		t.Errorf("span sum %v != Total %v", sum, res.Total())
	}
	// The spans tile the invocation: each starts where the previous ended.
	order := []string{obs.SpanScheduling, obs.SpanColdStart, obs.SpanQueuing, obs.SpanExecution}
	for i := 1; i < len(order); i++ {
		prev, cur := byName[order[i-1]], byName[order[i]]
		if cur.Start != prev.End {
			t.Errorf("%s starts at %v, %s ends at %v", order[i], cur.Start, order[i-1], prev.End)
		}
	}
}

// TestTraceRoundTripGrouped is TestTraceRoundTripLive for a cold group
// of eight: each member's four spans are its Result components to the
// nanosecond, tile without gaps and sum to its Total, and every member
// shares the group's dispatch and ready instants.
func TestTraceRoundTripGrouped(t *testing.T) {
	const members = 8
	tracer, err := obs.NewWallTracer(1024, 1)
	if err != nil {
		t.Fatalf("NewWallTracer: %v", err)
	}
	cfg := groupedConfig(members)
	cfg.Tracer = tracer
	// Only the early close at eight members ends the group's window.
	cfg.DispatchInterval = 5 * time.Second
	cfg.ColdStart = 5 * time.Millisecond
	p := newPlatform(t, cfg)
	release := make(chan struct{})
	if err := p.Register("fn", func(_ context.Context, inv *Invocation) (any, error) {
		if string(inv.Payload) == `"block"` {
			<-release
			return nil, nil
		}
		time.Sleep(time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// A lone first arrival takes the fast path into its own container and
	// keeps it busy, so the group's arrivals are never idle and wait for
	// the eighth, and the group boots a container of its own.
	blocked := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "fn", json.RawMessage(`"block"`))
		blocked <- err
	}()
	for p.Stats().LiveContainers != 1 {
		time.Sleep(time.Millisecond)
	}
	results := make(chan Result, members)
	for i := 0; i < members; i++ {
		go func() {
			res, err := p.Invoke(context.Background(), "fn", nil)
			if err != nil {
				t.Errorf("Invoke: %v", err)
			}
			results <- res
		}()
	}
	byTrace := map[uint64]Result{}
	for i := 0; i < members; i++ {
		res := <-results
		byTrace[res.TraceID] = res
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocking Invoke: %v", err)
	}
	if len(byTrace) != members {
		t.Fatalf("%d distinct trace IDs for %d members", len(byTrace), members)
	}

	spans := map[uint64]map[string]obs.Span{}
	for _, s := range tracer.Snapshot() {
		if _, ok := byTrace[s.Trace]; ok {
			if spans[s.Trace] == nil {
				spans[s.Trace] = map[string]obs.Span{}
			}
			spans[s.Trace][s.Name] = s
		}
	}
	var first map[string]obs.Span
	for trace, res := range byTrace {
		if !res.Cold || res.ColdStart <= 0 {
			t.Fatalf("trace %d: Cold %v, ColdStart %v; want the group cold", trace, res.Cold, res.ColdStart)
		}
		byName := spans[trace]
		want := []time.Duration{res.Sched, res.ColdStart, res.Queue, res.Exec}
		var sum time.Duration
		for i, name := range obs.DecompositionSpans {
			s, ok := byName[name]
			if !ok {
				t.Fatalf("trace %d missing %s span (have %v)", trace, name, byName)
			}
			if s.Dur() != want[i] {
				t.Errorf("trace %d: %s span = %v, Result reports %v", trace, name, s.Dur(), want[i])
			}
			if s.Container != res.ContainerID {
				t.Errorf("trace %d: %s span on container %q, Result on %q", trace, name, s.Container, res.ContainerID)
			}
			if i > 0 {
				if prev := byName[obs.DecompositionSpans[i-1]]; s.Start != prev.End {
					t.Errorf("trace %d: %s starts at %v, %s ends at %v", trace, name, s.Start, prev.Name, prev.End)
				}
			}
			sum += s.Dur()
		}
		if sum != res.Total() {
			t.Errorf("trace %d: span sum %v != Total %v", trace, sum, res.Total())
		}
		if first == nil {
			first = byName
			continue
		}
		// Dispatch ends scheduling and opens the cold start; ready ends
		// the cold start and opens queuing. Both are the group's.
		if got, want := byName[obs.SpanScheduling].End, first[obs.SpanScheduling].End; got != want {
			t.Errorf("trace %d: dispatched at %v, another member at %v", trace, got, want)
		}
		if got, want := byName[obs.SpanColdStart].End, first[obs.SpanColdStart].End; got != want {
			t.Errorf("trace %d: ready at %v, another member at %v", trace, got, want)
		}
	}
}

// TestInvokeReplyLatencyMatchesTrace checks the wire view of the
// decomposition loses nothing: each of a traced /invoke reply's four
// millisecond components is its span's duration to the nanosecond, and
// the total is their sum up to float rounding.
func TestInvokeReplyLatencyMatchesTrace(t *testing.T) {
	p, tracer := tracedPlatform(t)
	if err := p.Register("sleepy", func(_ context.Context, _ *Invocation) (any, error) {
		time.Sleep(time.Millisecond)
		return "ok", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)
	resp, out := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "sleepy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	trace, err := strconv.ParseUint(out.TraceID, 16, 64)
	if err != nil || trace == 0 {
		t.Fatalf("reply traceId %q: %v", out.TraceID, err)
	}
	spans := map[string]time.Duration{}
	for _, s := range tracer.Snapshot() {
		if s.Trace == trace {
			spans[s.Name] = s.Dur()
		}
	}
	l := out.Latency
	for i, ms := range []float64{l.SchedMillis, l.ColdMillis, l.QueueMillis, l.ExecMillis} {
		name := obs.DecompositionSpans[i]
		dur, ok := spans[name]
		if !ok {
			t.Fatalf("trace %x has no %s span (have %v)", trace, name, spans)
		}
		if got := time.Duration(math.Round(ms * 1e6)); got != dur {
			t.Errorf("%s: reply says %v ms (%v), span lasted %v", name, ms, got, dur)
		}
	}
	if sum := l.SchedMillis + l.ColdMillis + l.QueueMillis + l.ExecMillis; math.Abs(l.TotalMillis-sum) > 1e-9 {
		t.Errorf("TotalMillis %v != component sum %v", l.TotalMillis, sum)
	}
}

// TestInvokeAcceptsTraceparent checks the gateway joins a caller-supplied
// trace: a W3C traceparent header on /invoke makes the worker record its
// spans under the remote trace ID and echo the header on the response.
func TestInvokeAcceptsTraceparent(t *testing.T) {
	p, tracer := tracedPlatform(t)
	if err := p.Register("noop", func(_ context.Context, _ *Invocation) (any, error) { return "ok", nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)

	const parent = uint64(0xfeedface12345678)
	body, _ := json.Marshal(httpapi.InvokeRequest{Fn: "noop"})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(parent))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceParentHeader); got != obs.FormatTraceParent(parent) {
		t.Fatalf("response traceparent = %q, want echo of %q", got, obs.FormatTraceParent(parent))
	}
	spans := 0
	for _, s := range tracer.Snapshot() {
		if s.Trace == parent {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("no worker spans adopted remote trace %x; have %v", parent, tracer.Snapshot())
	}

	// A malformed header is ignored per the W3C processing model: the
	// invocation succeeds on a locally minted trace.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke", strings.NewReader(string(body)))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(obs.TraceParentHeader, "00-bogus")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("POST /invoke (malformed): %v", err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("malformed-header status = %d, want 200", resp2.StatusCode)
	}
	echo := resp2.Header.Get(obs.TraceParentHeader)
	if id, ok := obs.ParseTraceParent(echo); !ok || id == parent {
		t.Fatalf("malformed inbound header produced traceparent %q (parsed %x)", echo, id)
	}
}

// TestSLOGaugesOnMetrics checks a platform configured with SLO objectives
// exposes burn-rate gauges on /metrics, and that a latency storm flips the
// breached gauge to 1.
func TestSLOGaugesOnMetrics(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.SLOs = []slo.Objective{{Function: "slow", Quantile: 0.99, Target: time.Millisecond, MaxBurn: 2}}
	p := newPlatform(t, cfg)
	if err := p.Register("slow", func(_ context.Context, _ *Invocation) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return "ok", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.Invoke(context.Background(), "slow", nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
	}
	p.SetReady(true)
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, want := range []string{
		"# TYPE faasbatch_slo_fast_burn gauge",
		"# TYPE faasbatch_slo_slow_burn gauge",
		"# TYPE faasbatch_slo_breached gauge",
		`faasbatch_slo_breached{fn="slow",quantile="0.99"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	st := p.SLOs().Evaluate(time.Since(p.epoch))
	if len(st) != 1 || !st[0].Breached {
		t.Fatalf("SLO statuses = %+v, want one breached status", st)
	}
}

// TestDebugTracesEndpoint checks /debug/traces serves Chrome trace JSON,
// and stays 200 with an empty trace when tracing is disabled.
func TestDebugTracesEndpoint(t *testing.T) {
	p, _ := tracedPlatform(t)
	if err := p.Register("noop", func(_ context.Context, _ *Invocation) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "noop", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(trace.TraceEvents) < 3 {
		t.Fatalf("traceEvents = %d, want at least scheduling+queuing+execution", len(trace.TraceEvents))
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s has phase %q, want X", ev.Name, ev.Ph)
		}
	}

	// Untraced platform: the endpoint still answers with an empty trace.
	plain := newPlatform(t, quickConfig(ModeBatch))
	psrv := httptest.NewServer(NewHTTPHandler(plain))
	t.Cleanup(psrv.Close)
	r2, err := http.Get(psrv.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces (untraced): %v", err)
	}
	defer func() { _ = r2.Body.Close() }()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("untraced status = %d", r2.StatusCode)
	}
	var empty struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&empty); err != nil {
		t.Fatalf("decode empty trace: %v", err)
	}
	if len(empty.TraceEvents) != 0 {
		t.Fatalf("untraced platform exported %d events", len(empty.TraceEvents))
	}
}

// TestRetrySpansShareTrace checks that a retried invocation's attempts all
// land on one trace, including the retry-backoff span.
func TestRetrySpansShareTrace(t *testing.T) {
	tracer, err := obs.NewWallTracer(1024, 1)
	if err != nil {
		t.Fatalf("NewWallTracer: %v", err)
	}
	cfg := quickConfig(ModeBatch)
	cfg.Tracer = tracer
	cfg.MaxRetries = 1
	p := newPlatform(t, cfg)
	calls := 0
	if err := p.Register("flaky", func(_ context.Context, _ *Invocation) (any, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return "ok", nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "flaky", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
	attempts := map[int]bool{}
	for _, s := range tracer.Snapshot() {
		if s.Trace != res.TraceID {
			continue
		}
		if s.Name == obs.SpanExecution {
			attempts[s.Attempt] = true
		}
	}
	if !attempts[1] || !attempts[2] {
		t.Fatalf("execution attempts on trace = %v, want both 1 and 2", attempts)
	}
}

// BenchmarkInvoke measures the per-invocation cost with tracing disabled
// (the default) and enabled, to keep the disabled path honest.
func BenchmarkInvoke(b *testing.B) {
	for _, bc := range []struct {
		name   string
		tracer bool
	}{{"tracing-off", false}, {"tracing-on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Mode = ModeBatch
			cfg.DispatchInterval = time.Millisecond
			cfg.ColdStart = 0
			if bc.tracer {
				tr, err := obs.NewWallTracer(1<<16, 1)
				if err != nil {
					b.Fatalf("NewWallTracer: %v", err)
				}
				cfg.Tracer = tr
			}
			p, err := New(cfg)
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			defer func() { _ = p.Close() }()
			if err := p.Register("noop", func(_ context.Context, _ *Invocation) (any, error) { return nil, nil }); err != nil {
				b.Fatalf("Register: %v", err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Invoke(ctx, "noop", nil); err != nil {
					b.Fatalf("Invoke: %v", err)
				}
			}
		})
	}
}

// TestObservabilityDocSeries holds docs/OBSERVABILITY.md's gateway table
// to the statSeries declarations: names, kinds, /stats keys, help texts.
func TestObservabilityDocSeries(t *testing.T) {
	obstest.CheckDoc(t, "../../docs/OBSERVABILITY.md", "gateway", obstest.DocTable(statSeries))
}

// TestStatsWireMatchesStatsResponse ties the series-rendered /stats reply
// to the struct clients (and the router's federation) decode it into:
// same keys, same order, same values, byte for byte.
func TestStatsWireMatchesStatsResponse(t *testing.T) {
	p, srv := newHTTPServer(t)
	registerClientBuilder(t, p)
	if r, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "s3"}); r.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", r.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /stats: %v", err)
	}
	var st httpapi.StatsResponse
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/stats does not decode as StatsResponse: %v\n%s", err, body)
	}
	if st.Invocations != 1 || st.CacheMisses != 1 {
		t.Fatalf("decoded stats = %+v", st)
	}
	again, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(again)+"\n" != string(body) {
		t.Fatalf("/stats and StatsResponse disagree:\nwire   %sstruct %s", body, again)
	}
}
