// Golden files for the frozen HTTP wire: the HELP/TYPE/name lines (in
// order) of every Prometheus surface and the key order of every JSON
// surface, for one fixed fleet state under each policy. The files under
// testdata/wire were captured before the serving edge was rebuilt over
// one skeleton and one series descriptor; a diff here is a wire change.
// Regenerate with `go test ./internal/router -run TestWireGolden -update`.
package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/router"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire golden files")

// promShape keeps an exposition's HELP and TYPE lines verbatim and strips
// every sample line to its name and labels, preserving order.
func promShape(doc string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(doc, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// jsonShape lists a JSON document's leaf paths in document order, array
// elements folded into one "[]" step and repeats dropped, so it pins key
// names, nesting and order but no value.
func jsonShape(t *testing.T, doc string) string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	var (
		out  []string
		seen = map[string]bool{}
	)
	emit := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("json shape: %v in %q", err, doc)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatalf("json shape: %v", err)
				}
				walk(strings.TrimPrefix(path+"."+key.(string), "."))
			}
			_, _ = dec.Token()
			emit(path + "{}")
		case json.Delim('['):
			for dec.More() {
				walk(path + "[]")
			}
			_, _ = dec.Token()
			emit(path + "[]")
		default:
			emit(path)
		}
	}
	walk("")
	return strings.Join(out, "\n") + "\n"
}

// wireGet fetches one surface and renders its golden form: status line,
// content type, then the shape of the body.
func wireGet(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	head := fmt.Sprintf("status %d\ncontent-type %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	if bytes.HasPrefix(raw, []byte("{")) || bytes.HasPrefix(raw, []byte("[")) {
		if raw[len(raw)-1] != '\n' {
			t.Errorf("%s: JSON body does not end in a newline", path)
		}
		return head + jsonShape(t, string(raw))
	}
	return head + promShape(string(raw))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	file := filepath.Join("testdata", "wire", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update at a known-good commit)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s\n--- got ---\n%s--- want ---\n%s", name, file, got, want)
	}
}

// TestWireGolden drives one fixed state — two live workers, three routed
// echoes — under the hash policy and under pull with the autoscaler on,
// and compares every surface's shape with its golden file.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*router.Config)
	}{
		{"hash", nil},
		{"pull_autoscale", func(cfg *router.Config) {
			cfg.Policy = router.PolicyPull
			cfg.Autoscale = &autoscale.Config{MinWorkers: 2, MaxWorkers: 2, TargetPerWorker: 5, EvalInterval: time.Hour}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := newFleet(t, 2)
			rt := fleetRouter(t, fleet, tc.mut)
			srv := httptest.NewServer(router.NewHTTPHandler(rt))
			defer srv.Close()
			for i := 0; i < 3; i++ {
				if _, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: "echo", Payload: json.RawMessage("1")}); err != nil {
					t.Fatalf("Invoke: %v", err)
				}
			}
			for _, path := range []string{"/stats", "/metrics", "/cluster/stats", "/cluster/metrics", "/workers", "/healthz"} {
				checkGolden(t, tc.name+"_router"+strings.ReplaceAll(path, "/", "_"), wireGet(t, srv.URL, path))
			}
			if tc.name != "hash" {
				return
			}
			// The gateway's own surfaces, from the worker that served.
			for _, w := range fleet {
				if w.p.Stats().Invocations == 0 {
					continue
				}
				for _, path := range []string{"/stats", "/metrics", "/functions", "/healthz"} {
					checkGolden(t, "gateway"+strings.ReplaceAll(path, "/", "_"), wireGet(t, w.srv.URL, path))
				}
			}
		})
	}
}

// TestHTTPV1RouteParity is the router's half of the gateway test of the
// same name: every route answers under /v1 as it does under its legacy
// path — same status, content type and shape for each read surface, the
// same refusal for the wrong method, and /invoke serving the same
// invocation either way.
func TestHTTPV1RouteParity(t *testing.T) {
	fleet := newFleet(t, 2)
	rt := fleetRouter(t, fleet, nil)
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()

	invoke := func(path string) httpapi.RoutedInvokeResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"fn":"echo","payload":7}`))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out httpapi.RoutedInvokeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, decode %v", path, resp.StatusCode, err)
		}
		return out
	}
	legacy, v1 := invoke("/invoke"), invoke("/v1/invoke")
	if string(v1.Result) != "7" || legacy.Worker != v1.Worker || string(legacy.Result) != string(v1.Result) || legacy.ForwardAttempts != v1.ForwardAttempts {
		t.Fatalf("/invoke and /v1/invoke disagree:\n%+v\n%+v", legacy, v1)
	}
	for _, path := range []string{"/stats", "/workers", "/metrics", "/cluster/metrics", "/cluster/stats", "/healthz"} {
		if a, b := wireGet(t, srv.URL, path), wireGet(t, srv.URL, "/v1"+path); a != b || !strings.HasPrefix(a, "status 200\n") {
			t.Errorf("%s and /v1%s disagree:\n%s\n---\n%s", path, path, a, b)
		}
	}
	for _, path := range []string{"/stats", "/workers", "/metrics", "/cluster/metrics", "/cluster/stats"} {
		for _, p := range []string{path, "/v1" + path} {
			resp, err := http.Post(srv.URL+p, "application/json", nil)
			if err != nil {
				t.Fatalf("POST %s: %v", p, err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || string(body) != "GET required\n" {
				t.Errorf("POST %s = %d %q, want 405 \"GET required\"", p, resp.StatusCode, body)
			}
		}
	}
	if a, b := wireGet(t, srv.URL, "/invoke"), wireGet(t, srv.URL, "/v1/invoke"); a != b || !strings.HasPrefix(a, "status 405\n") {
		t.Errorf("GET /invoke and GET /v1/invoke disagree:\n%s\n---\n%s", a, b)
	}
}
