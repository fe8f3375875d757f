package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faasbatch/internal/obs"
)

// TestMuxServesBothPathsBehindOneGuard: every route answers identically
// under its legacy path and under /v1, refuses other methods with 405
// "<METHOD> required", and a route without a method takes any.
func TestMuxServesBothPathsBehindOneGuard(t *testing.T) {
	h := NewMux([]Route{
		{Path: "/read", Method: http.MethodGet, Handler: func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "read") }},
		{Path: "/any", Handler: func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, r.Method) }},
	})
	do := func(method, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.String()
	}
	for _, prefix := range []string{"", "/v1"} {
		if code, body := do(http.MethodGet, prefix+"/read"); code != http.StatusOK || body != "read" {
			t.Errorf("GET %s/read = %d %q", prefix, code, body)
		}
		if code, body := do(http.MethodPost, prefix+"/read"); code != http.StatusMethodNotAllowed || body != "GET required\n" {
			t.Errorf("POST %s/read = %d %q, want 405 \"GET required\"", prefix, code, body)
		}
		if code, body := do(http.MethodDelete, prefix+"/any"); code != http.StatusOK || body != http.MethodDelete {
			t.Errorf("DELETE %s/any = %d %q", prefix, code, body)
		}
	}
	if code, _ := do(http.MethodGet, "/v2/read"); code != http.StatusNotFound {
		t.Errorf("GET /v2/read = %d, want 404", code)
	}
}

// TestReadBodyCapsAndAnswers: a body within the cap comes back whole; one
// past it is answered 413 by ReadBody itself.
func TestReadBodyCapsAndAnswers(t *testing.T) {
	rec := httptest.NewRecorder()
	body, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/invoke", strings.NewReader(`{"fn":"f"}`)))
	if !ok || string(body) != `{"fn":"f"}` {
		t.Fatalf("ReadBody = %q, %v", body, ok)
	}
	rec = httptest.NewRecorder()
	if _, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/invoke", strings.NewReader(strings.Repeat("x", MaxInvokeBodyBytes+1)))); ok {
		t.Fatal("oversize body accepted")
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds 1048576 bytes") {
		t.Fatalf("oversize body answered %d %q", rec.Code, rec.Body.String())
	}
}

// TestTraceInAndOut: a well-formed traceparent is adopted, a malformed one
// ignored, and only a non-zero ID is echoed.
func TestTraceInAndOut(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/invoke", nil)
	if id := InboundTrace(r); id != 0 {
		t.Fatalf("no header: trace %d", id)
	}
	r.Header.Set(obs.TraceParentHeader, "garbage")
	if id := InboundTrace(r); id != 0 {
		t.Fatalf("malformed header adopted as %d", id)
	}
	r.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(0xabc))
	if id := InboundTrace(r); id != 0xabc {
		t.Fatalf("trace = %#x, want 0xabc", id)
	}
	rec := httptest.NewRecorder()
	EchoTrace(rec, 0)
	if got := rec.Header().Get(obs.TraceParentHeader); got != "" {
		t.Fatalf("zero trace echoed %q", got)
	}
	EchoTrace(rec, 0xabc)
	if id, ok := obs.ParseTraceParent(rec.Header().Get(obs.TraceParentHeader)); !ok || id != 0xabc {
		t.Fatalf("echoed header %q", rec.Header().Get(obs.TraceParentHeader))
	}
}

// TestWriteLineRecyclesItsBuffer: the line goes out with its newline and
// JSON content type, and the grown buffer returns to the pool.
func TestWriteLineRecyclesItsBuffer(t *testing.T) {
	rec := httptest.NewRecorder()
	bufp := LineBuffer()
	WriteLine(rec, httptest.NewRequest(http.MethodGet, "/stats", nil), obs.Nop(), bufp, append((*bufp)[:0], `{"a":1}`...))
	if rec.Body.String() != "{\"a\":1}\n" || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteLine wrote %q (%s)", rec.Body.String(), rec.Header().Get("Content-Type"))
	}
	if string(*bufp) != "{\"a\":1}\n" {
		t.Fatalf("buffer not stored back for reuse: %q", *bufp)
	}
}
