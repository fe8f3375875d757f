// End-to-end tests for the cluster observability plane: cross-process
// trace stitching through the routing tier and metrics federation over
// live workers.
package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/router"
)

// tracedFleet boots n live workers, each with its own always-sampling
// wall tracer salted by worker index — as distinct processes would be —
// so minted IDs never collide across the fleet.
func tracedFleet(t *testing.T, n int) ([]*liveWorker, []*obs.Tracer) {
	t.Helper()
	fleet := make([]*liveWorker, n)
	tracers := make([]*obs.Tracer, n)
	for i := range fleet {
		id := cluster.NodeMember(i)
		tracer, err := obs.NewWallTracerWithSalt(1024, 1, uint64(i+1)<<32)
		if err != nil {
			t.Fatalf("NewWallTracerWithSalt: %v", err)
		}
		cfg := platform.DefaultConfig()
		cfg.DispatchInterval = 10 * time.Millisecond
		cfg.ColdStart = 0
		cfg.WorkerID = id
		cfg.Tracer = tracer
		p, err := platform.New(cfg)
		if err != nil {
			t.Fatalf("platform.New(%s): %v", id, err)
		}
		t.Cleanup(func() { _ = p.Close() })
		err = p.Register("echo", func(_ context.Context, inv *platform.Invocation) (any, error) {
			return json.RawMessage(inv.Payload), nil
		})
		if err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
		p.SetReady(true)
		srv := httptest.NewServer(platform.NewHTTPHandler(p))
		t.Cleanup(srv.Close)
		fleet[i] = &liveWorker{id: id, p: p, srv: srv}
		tracers[i] = tracer
	}
	return fleet, tracers
}

// TestEndToEndStitchedTrace is the tentpole acceptance run: one
// invocation through a three-worker routed cluster — with a forced
// failover retry — produces a stitched trace whose router and worker
// spans share a single trace ID, end to end from the caller's
// traceparent header.
func TestEndToEndStitchedTrace(t *testing.T) {
	fleet, workerTracers := tracedFleet(t, 3)
	routerTracer, err := obs.NewWallTracerWithSalt(1024, 1, 0xff<<24)
	if err != nil {
		t.Fatalf("NewWallTracerWithSalt: %v", err)
	}
	rt := fleetRouter(t, fleet, func(cfg *router.Config) {
		cfg.Tracer = routerTracer
		cfg.MarkDownAfter = 2
		cfg.MaxAttempts = 3
	})
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()

	// Kill the ring owner of "echo" so the first forward attempt hits a
	// dead socket and the router fails over to the next candidate.
	victimID, ok := ringOwner(rt.Registry(), "echo")
	if !ok {
		t.Fatal("no owner for echo")
	}
	for _, w := range fleet {
		if w.id == victimID {
			w.srv.CloseClientConnections()
			w.srv.Close()
		}
	}

	const parent = uint64(0x0badc0ffee000001)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke",
		strings.NewReader(`{"fn":"echo","payload":{"n":7}}`))
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
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(obs.TraceParentHeader); got != obs.FormatTraceParent(parent) {
		t.Fatalf("response traceparent = %q, want echo of the caller's", got)
	}
	var routed httpapi.RoutedInvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&routed); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if routed.ForwardAttempts < 2 {
		t.Fatalf("ForwardAttempts = %d, want a failover retry", routed.ForwardAttempts)
	}
	if routed.TraceID != fmt.Sprintf("%016x", parent) {
		t.Fatalf("response traceId = %q, want %016x", routed.TraceID, parent)
	}
	if routed.Worker == victimID {
		t.Fatalf("served by the dead worker %s", routed.Worker)
	}

	// Router spans: route + one forward per attempt, all on the caller's
	// trace, with worker IDs and outcomes in the forward details.
	var forwards []obs.Span
	for _, s := range routerTracer.Snapshot() {
		if s.Trace != parent {
			t.Errorf("router span %s on trace %x, want %x", s.Name, s.Trace, parent)
		}
		if s.Name == obs.SpanForward {
			forwards = append(forwards, s)
		}
	}
	if len(forwards) != routed.ForwardAttempts {
		t.Fatalf("router recorded %d forward spans, want %d", len(forwards), routed.ForwardAttempts)
	}
	if d := forwards[0].Detail; !strings.Contains(d, victimID) || !strings.Contains(d, "transient") {
		t.Errorf("first forward detail = %q, want victim %s + transient", d, victimID)
	}
	last := forwards[len(forwards)-1]
	if d := last.Detail; !strings.Contains(d, routed.Worker) || !strings.Contains(d, "ok") {
		t.Errorf("last forward detail = %q, want server %s + ok", d, routed.Worker)
	}

	// The serving worker's spans joined the same trace.
	workerSpans := 0
	for i, w := range fleet {
		for _, s := range workerTracers[i].Snapshot() {
			if s.Trace == parent {
				if w.id != routed.Worker {
					t.Errorf("dead/idle worker %s has span %s on the trace", w.id, s.Name)
				}
				workerSpans++
			}
		}
	}
	if workerSpans == 0 {
		t.Fatal("no worker spans adopted the caller's trace")
	}

	// Stitch the per-process exports into one timeline: every span lands
	// in one file, tagged with its process, all on the one trace lane.
	var routerBuf bytes.Buffer
	if err := routerTracer.WriteChromeTrace(&routerBuf); err != nil {
		t.Fatalf("router WriteChromeTrace: %v", err)
	}
	sources := []obs.TraceSource{{Name: "router", Reader: &routerBuf}}
	for i, w := range fleet {
		var buf bytes.Buffer
		if err := workerTracers[i].WriteChromeTrace(&buf); err != nil {
			t.Fatalf("worker WriteChromeTrace: %v", err)
		}
		sources = append(sources, obs.TraceSource{Name: w.id, Reader: &buf})
	}
	var stitched bytes.Buffer
	if err := obs.StitchChromeTraces(&stitched, sources...); err != nil {
		t.Fatalf("StitchChromeTraces: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(stitched.Bytes(), &out); err != nil {
		t.Fatalf("decode stitched trace: %v", err)
	}
	procs := map[string]bool{}
	spans := 0
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Tid != parent {
			continue
		}
		spans++
		procs[ev.Args["process"]] = true
	}
	if spans < 4 {
		t.Fatalf("stitched trace has %d spans on trace %x, want route+2 forwards+worker spans", spans, parent)
	}
	if !procs["router"] || !procs[routed.Worker] {
		t.Fatalf("stitched trace processes = %v, want router and %s", procs, routed.Worker)
	}
}

// TestClusterMetricsFederation drives invocations across a fleet and
// checks /cluster/metrics conserves them exactly: the federated
// invocation counter equals the driven total, histogram counts merge
// bucket-wise, and per-worker gauges stay attributed.
func TestClusterMetricsFederation(t *testing.T) {
	fleet := newFleet(t, 3)
	rt := fleetRouter(t, fleet, nil)
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()

	fns := []string{"fed-a", "fed-b", "fed-c", "fed-d"}
	for _, w := range fleet {
		for _, fn := range fns {
			err := w.p.Register(fn, func(_ context.Context, _ *platform.Invocation) (any, error) {
				return "ok", nil
			})
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
	}
	const perFn = 5
	for _, fn := range fns {
		for i := 0; i < perFn; i++ {
			if _, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: fn}); err != nil {
				t.Fatalf("Invoke(%s): %v", fn, err)
			}
		}
	}
	total := float64(perFn * len(fns))

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(raw)
	}
	doc := get("/cluster/metrics")
	fams, err := obs.ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("federated output does not re-parse: %v", err)
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	sample := func(fam, labels string) float64 {
		t.Helper()
		f, ok := byName[fam]
		if !ok {
			t.Fatalf("federation missing family %s", fam)
		}
		for _, s := range f.Samples {
			if s.Labels == labels {
				return s.Value
			}
		}
		t.Fatalf("family %s has no sample %q (have %+v)", fam, labels, f.Samples)
		return 0
	}
	// Exact counter conservation: the fleet completed exactly the driven
	// invocations, no more, no fewer.
	if got := sample("faasbatch_invocations_total", ""); got != total {
		t.Fatalf("federated invocations = %v, want %v", got, total)
	}
	// Histogram conservation: end-to-end latency count sums across the
	// fleet to the driven total as well.
	count := 0.0
	for _, s := range byName["faasbatch_latency_seconds"].Samples {
		if strings.HasSuffix(s.Name, "_count") && strings.Contains(s.Labels, `component="end-to-end"`) {
			count += s.Value
		}
	}
	if count != total {
		t.Fatalf("federated end-to-end histogram count = %v, want %v", count, total)
	}
	// Scrape meta-series and per-worker gauge attribution.
	if got := sample("faascluster_members", ""); got != 3 {
		t.Fatalf("faascluster_members = %v, want 3", got)
	}
	if got := sample("faascluster_members_scraped", ""); got != 3 {
		t.Fatalf("faascluster_members_scraped = %v, want 3", got)
	}
	for _, w := range fleet {
		if got := sample("faasbatch_goroutines", fmt.Sprintf("worker=%q", w.id)); got < 1 {
			t.Fatalf("goroutines gauge for %s = %v", w.id, got)
		}
	}

	// /cluster/stats: the roll-up equals the member sum, and matches the
	// driven total.
	var cs httpapi.ClusterStatsResponse
	if err := json.Unmarshal([]byte(get("/cluster/stats")), &cs); err != nil {
		t.Fatalf("decode /cluster/stats: %v", err)
	}
	if cs.Cluster.Invocations != int64(total) {
		t.Fatalf("cluster invocations = %d, want %v", cs.Cluster.Invocations, total)
	}
	var memberSum int64
	for _, m := range cs.Members {
		if !m.Fresh {
			t.Errorf("member %s not fresh on a healthy fleet", m.Worker)
		}
		memberSum += m.Stats.Invocations
	}
	if memberSum != cs.Cluster.Invocations {
		t.Fatalf("member sum %d != cluster roll-up %d", memberSum, cs.Cluster.Invocations)
	}

	// Kill one worker: the next scrape serves its last good snapshot,
	// marked stale, instead of blanking the fleet view.
	victim := fleet[0]
	victim.srv.CloseClientConnections()
	victim.srv.Close()
	var cs2 httpapi.ClusterStatsResponse
	if err := json.Unmarshal([]byte(get("/cluster/stats")), &cs2); err != nil {
		t.Fatalf("decode /cluster/stats after kill: %v", err)
	}
	found := false
	for _, m := range cs2.Members {
		if m.Worker == victim.id {
			found = true
			if m.Fresh {
				t.Errorf("dead member %s reported fresh", m.Worker)
			}
		}
	}
	if !found {
		t.Fatal("dead member dropped from the cluster view despite a cached snapshot")
	}
	if cs2.Cluster.Invocations != cs.Cluster.Invocations {
		t.Fatalf("stale fallback changed the roll-up: %d -> %d", cs.Cluster.Invocations, cs2.Cluster.Invocations)
	}
	if rt.Stats().ScrapeFailures == 0 || !strings.Contains(string(cs2.Router), fmt.Sprintf(`"scrapeFailures":%d,`, rt.Stats().ScrapeFailures)) {
		t.Fatal("scrape failure not counted")
	}
	doc2 := get("/cluster/metrics")
	if !strings.Contains(doc2, "faascluster_members_stale 1") {
		t.Fatal("federation does not report the stale member")
	}
}

// TestRouterRuntimeGauges checks the router's own /metrics carries the
// full obs.RuntimeSeries set under the faasrouter prefix, plus the
// scrape counters.
func TestRouterRuntimeGauges(t *testing.T) {
	fleet := newFleet(t, 1)
	rt := fleetRouter(t, fleet, nil)
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, ex := range obs.RuntimeSeries("faasrouter") {
		for _, want := range []string{
			fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", ex.Name, ex.Help, ex.Name, ex.Kind),
			"\n" + ex.Name + " ",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	for _, want := range []string{"faasrouter_scrapes_total ", "faasrouter_scrape_failures_total "} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
