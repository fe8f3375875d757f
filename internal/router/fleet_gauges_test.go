package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/obs"
	"faasbatch/internal/obs/obstest"
)

// scrapeText fetches one exposition document from the router handler.
func scrapeText(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(raw)
}

// gaugeValue extracts the sample value of an unlabeled series from an
// exposition document (-1 when absent).
func gaugeValue(doc, name string) float64 {
	for _, line := range strings.Split(doc, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// checkSeries asserts every /metrics row of one Series table appears in
// doc with its HELP and TYPE lines and the value the row reads from snap.
func checkSeries[S any](t *testing.T, path, doc string, rows []obs.Series[S], snap *S) {
	t.Helper()
	for _, row := range rows {
		if row.Name == "" {
			continue
		}
		if (row.Int == nil) == (row.Float == nil) {
			t.Errorf("%s: want exactly one of Int and Float", row.Name)
			continue
		}
		if row.Kind != obs.Counter && row.Kind != obs.Gauge {
			t.Errorf("%s: bad kind %q", row.Name, row.Kind)
		}
		head := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s ", row.Name, row.Help, row.Name, row.Kind, row.Name)
		if row.Help == "" || !strings.Contains(doc, head) {
			t.Errorf("%s missing %q", path, head)
		}
		var want float64
		if row.Int != nil {
			want = float64(row.Int(snap))
		} else {
			want = row.Float(snap)
		}
		if got := gaugeValue(doc, row.Name); got != want {
			t.Errorf("%s: %s = %v, want %v", path, row.Name, got, want)
		}
	}
}

// TestFleetGaugeConformance walks the fleetSeries table against a live
// scrape: every lifecycle gauge must appear with its HELP/TYPE header
// and a value matching the registry's Counts — with autoscaling
// disabled, on both /metrics and /cluster/metrics. Adding a row to the
// table makes this test cover it automatically.
func TestFleetGaugeConformance(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	rt := newTestRouter(t, workers, nil)
	// Put the fleet in a mixed state: one draining, one standby.
	rt.reg.Drain("w2")
	rt.reg.Retire("w3")
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/cluster/metrics"} {
		doc := scrapeText(t, srv, path)
		snap := rt.snapshot()
		checkSeries(t, path, doc, fleetSeries, &snap)
		if strings.Contains(doc, "faasbatch_autoscale_") {
			t.Errorf("%s exposes autoscale series with autoscaling disabled", path)
		}
	}
	if v := gaugeValue(scrapeText(t, srv, "/metrics"), "faascluster_workers_draining"); v != 1 {
		t.Fatalf("draining gauge = %v, want 1", v)
	}
}

// TestRouterSeriesConformance is the router's half of the platform's
// TestMetricsConformance: every numeric Stats field — found by
// reflection, so a new counter cannot silently skip the exposition —
// reaches a /metrics row of the router's own tables, and every row of
// those tables is on /metrics with the value the scrape's snapshot holds.
func TestRouterSeriesConformance(t *testing.T) {
	own := append(append(append([]obs.Series[snapshot]{}, forwardSeries...), scrapeSeries...), healthSeries...)
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		var snap snapshot
		reflect.ValueOf(&snap.Stats).Elem().Field(i).SetInt(7)
		found := false
		for _, row := range own {
			found = found || (row.Name != "" && row.Int != nil && row.Int(&snap) == 7)
		}
		if !found {
			t.Errorf("Stats field %s has no /metrics row", typ.Field(i).Name)
		}
	}
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	rt := newTestRouter(t, workers, nil)
	for i := 0; i < 3; i++ {
		if _, err := rt.Invoke(context.Background(), routedReq("fn")); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
	}
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()
	doc := scrapeText(t, srv, "/metrics")
	snap := rt.snapshot()
	checkSeries(t, "/metrics", doc, own, &snap)
	for _, row := range workerSeries {
		for _, wk := range rt.reg.Snapshot() {
			want := fmt.Sprintf("\n%s{worker=%q} %d\n", row.Name, wk.ID, row.Int(&wk))
			if !strings.Contains(doc, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	cdoc := scrapeText(t, srv, "/cluster/metrics")
	checkSeries(t, "/cluster/metrics", cdoc, clusterSeries, &clusterScrape{members: 2, scrapeFailures: rt.Stats().ScrapeFailures})
}

// TestAutoscaleGaugeConformance walks the autoscaleSeries table against
// a scrape of an autoscaling router: every series must appear with its
// declared HELP/TYPE and a value matching the controller snapshot, on
// both /metrics and /cluster/metrics.
func TestAutoscaleGaugeConformance(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	rt := newTestRouter(t, workers, func(cfg *Config) {
		cfg.Autoscale = &autoscale.Config{
			MinWorkers:      1,
			MaxWorkers:      3,
			TargetPerWorker: 5,
			EvalInterval:    50 * time.Millisecond,
		}
	})
	// The fleet starts at the scale floor: one ready worker, the other two
	// on standby, and the lifecycle gauges say so.
	if snap := rt.snapshot(); snap.ready != 1 || snap.standby != 2 {
		t.Fatalf("fleet starts with %d ready, %d standby; want 1 and 2", snap.ready, snap.standby)
	}
	// Drive some demand and a tick through the scaler at explicit offsets
	// so counters move off zero.
	for i := 0; i < 40; i++ {
		rt.scaler.observe("fn", time.Duration(i)*time.Millisecond)
	}
	rt.scaler.tick(50 * time.Millisecond)
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/cluster/metrics"} {
		doc := scrapeText(t, srv, path)
		ast, snap := rt.scaler.status(), rt.snapshot()
		checkSeries(t, path, doc, autoscaleSeries, &ast)
		checkSeries(t, path, doc, fleetSeries, &snap)
	}
	if v := gaugeValue(scrapeText(t, srv, "/metrics"), "faasbatch_autoscale_target_workers"); v < 2 {
		t.Fatalf("target gauge = %v after a 40-arrival burst, want >= 2", v)
	}
}

// TestObservabilityDocSeries holds docs/OBSERVABILITY.md's router tables
// to the declarations: names, kinds, /stats keys, help texts.
func TestObservabilityDocSeries(t *testing.T) {
	const doc = "../../docs/OBSERVABILITY.md"
	obstest.CheckDoc(t, doc, "router", obstest.DocTable(forwardSeries)+obstest.DocTable(scrapeSeries)+obstest.DocTable(healthSeries))
	obstest.CheckDoc(t, doc, "router-workers", obstest.DocTable(workerSeries))
	obstest.CheckDoc(t, doc, "fleet", obstest.DocTable(fleetSeries))
	obstest.CheckDoc(t, doc, "pull", obstest.DocTable(pullSeries))
	obstest.CheckDoc(t, doc, "autoscale", obstest.DocTable(autoscaleSeries))
	obstest.CheckDoc(t, doc, "cluster", obstest.DocTable(clusterSeries))
}
