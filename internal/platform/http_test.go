package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
)

func newHTTPServer(t *testing.T) (*Platform, *httptest.Server) {
	t.Helper()
	p := newPlatform(t, quickConfig(ModeBatch))
	err := p.Register("double", func(_ context.Context, inv *Invocation) (any, error) {
		var n int
		if err := json.Unmarshal(inv.Payload, &n); err != nil {
			return nil, err
		}
		return 2 * n, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)
	return p, srv
}

func postInvoke(t *testing.T, url string, req httpapi.InvokeRequest) (*http.Response, httpapi.InvokeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	var out httpapi.InvokeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, out
}

func TestHTTPInvoke(t *testing.T) {
	_, srv := newHTTPServer(t)
	resp, out := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("21")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(out.Result) != "42" {
		t.Fatalf("result = %s, want 42", out.Result)
	}
	if out.Fn != "double" || out.ContainerID == "" {
		t.Fatalf("response = %+v", out)
	}
	if !out.Cold || out.Latency.ColdMillis <= 0 {
		t.Errorf("first call should report cold start: %+v", out.Latency)
	}
	if out.Latency.TotalMillis <= 0 {
		t.Errorf("latency = %+v", out.Latency)
	}
	if out.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", out.Attempts)
	}
	if out.Latency.QueueMillis < 0 {
		t.Errorf("QueueMillis = %v, want >= 0", out.Latency.QueueMillis)
	}
	// The components and the total come from the same nanoseconds, so they
	// agree up to float rounding.
	sum := out.Latency.SchedMillis + out.Latency.ColdMillis + out.Latency.QueueMillis + out.Latency.ExecMillis
	if diff := out.Latency.TotalMillis - sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("TotalMillis %v != component sum %v", out.Latency.TotalMillis, sum)
	}
}

func TestHTTPInvokeErrors(t *testing.T) {
	_, srv := newHTTPServer(t)
	// Unknown function.
	resp, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "nope"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown fn status = %d, want 502", resp.StatusCode)
	}
	// Missing fn.
	resp, _ = postInvoke(t, srv.URL, httpapi.InvokeRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing fn status = %d, want 400", resp.StatusCode)
	}
	// Bad JSON.
	r, err := http.Post(srv.URL+"/invoke", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer func() { _ = r.Body.Close() }()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d, want 400", r.StatusCode)
	}
	// Wrong method.
	g, err := http.Get(srv.URL + "/invoke")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer func() { _ = g.Body.Close() }()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /invoke status = %d, want 405", g.StatusCode)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, srv := newHTTPServer(t)
	// Fire a batch of concurrent invocations.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("1")})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("invoke status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st httpapi.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Invocations != 6 {
		t.Errorf("Invocations = %d, want 6", st.Invocations)
	}
	if st.ContainersCreated == 0 || st.Groups == 0 {
		t.Errorf("stats = %+v", st)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer func() { _ = h.Body.Close() }()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", h.StatusCode)
	}
	// Stats endpoint rejects POST.
	sp, err := http.Post(srv.URL+"/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("POST /stats: %v", err)
	}
	defer func() { _ = sp.Body.Close() }()
	if sp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status = %d, want 405", sp.StatusCode)
	}
}

func TestHTTPConcurrentInvocationsBatch(t *testing.T) {
	p, srv := newHTTPServer(t)
	const n = 10
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("3")})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v", elapsed)
	}
	if st := p.Stats(); st.ContainersCreated > 3 {
		t.Errorf("ContainersCreated = %d for one burst, want <= 3", st.ContainersCreated)
	}
}

func TestHTTPFunctionsEndpoint(t *testing.T) {
	_, srv := newHTTPServer(t)
	resp, err := http.Get(srv.URL + "/functions")
	if err != nil {
		t.Fatalf("GET /functions: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var fns []string
	if err := json.NewDecoder(resp.Body).Decode(&fns); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(fns) != 1 || fns[0] != "double" {
		t.Fatalf("functions = %v", fns)
	}
	pr, err := http.Post(srv.URL+"/functions", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /functions: %v", err)
	}
	defer func() { _ = pr.Body.Close() }()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /functions status = %d, want 405", pr.StatusCode)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	_, srv := newHTTPServer(t)
	if r, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("2")}); r.StatusCode != http.StatusOK {
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
	for _, want := range []string{
		"faasbatch_invocations_total 1",
		"faasbatch_containers_created_total 1",
		"faasbatch_live_containers",
		"# TYPE faasbatch_groups_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	pr, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	defer func() { _ = pr.Body.Close() }()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", pr.StatusCode)
	}
}
