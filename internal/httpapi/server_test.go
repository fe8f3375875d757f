package httpapi

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faasbatch/internal/obs"
	"faasbatch/internal/obs/obstest"
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
	if !ok || string(*body) != `{"fn":"f"}` {
		t.Fatalf("ReadBody = %q, %v", *body, ok)
	}
	Recycle(body)
	rec = httptest.NewRecorder()
	if _, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/invoke", strings.NewReader(strings.Repeat("x", MaxInvokeBodyBytes+1)))); ok {
		t.Fatal("oversize body accepted")
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds 1048576 bytes") {
		t.Fatalf("oversize body answered %d %q", rec.Code, rec.Body.String())
	}
}

// TestReadBodyReusesItsBuffer: once the pool holds a buffer the body
// fits, reading a body allocates nothing — whether the reader reports EOF
// with the last bytes (net/http's bodies) or on a call of its own.
func TestReadBodyReusesItsBuffer(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	payload := strings.Repeat("x", 900) // past the pool's initial 512
	rd := strings.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/invoke", rd)
	req.Body = io.NopCloser(rd)
	rec := httptest.NewRecorder()
	read := func() {
		rd.Reset(payload)
		body, ok := ReadBody(rec, req)
		if !ok || len(*body) != len(payload) {
			t.Fatalf("ReadBody read %d bytes, ok %v", len(*body), ok)
		}
		Recycle(body)
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("ReadBody allocates %.1f objects/op with a warm pool, want 0", n)
	}
}

// TestAppendReadGrowsAndCaps checks the pooled reader against io.ReadAll
// across sizes that straddle its growth boundaries, and its cap.
func TestAppendReadGrowsAndCaps(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 4097, 100_000} {
		src := strings.Repeat("a", n)
		got, err := AppendRead(make([]byte, 0, 8), strings.NewReader(src), n)
		if err != nil || string(got) != src {
			t.Fatalf("AppendRead(n=%d) read %d bytes, err %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := AppendRead([]byte("head"), strings.NewReader(src), n-1); !errors.Is(err, ErrBodyTooLarge) {
				t.Fatalf("AppendRead(n=%d, max=%d) err = %v, want ErrBodyTooLarge", n, n-1, err)
			}
		}
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
