package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
)

// TestRetryAfterCeiling pins the Retry-After rounding fix: the header has
// one-second resolution, so any positive backoff must render as at least
// 1 — truncation used to turn every sub-second backoff into
// "Retry-After: 0", an instruction to hammer an overloaded router.
func TestRetryAfterCeiling(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{time.Nanosecond, 1},
		{10 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{0, 1},
		{-time.Second, 1},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
		if c.d > 0 && retryAfterSeconds(c.d) < 1 {
			t.Errorf("retryAfterSeconds(%v) < 1 for a positive delay", c.d)
		}
	}
}

// TestRetryAfterHeaderOnOverload checks the fix end to end at the HTTP
// surface: a shed with a sub-second backoff answers 429 with a usable
// Retry-After header.
func TestRetryAfterHeaderOnOverload(t *testing.T) {
	rec := httptest.NewRecorder()
	writeInvokeError(rec, &OverloadError{
		Fn: "fib", Reason: "queue full", RetryAfter: 250 * time.Millisecond,
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestRouterOversizeBody413 pins the router-side body cap: it shares the
// gateway's MaxInvokeBodyBytes and answers 413, so a client rejected by
// the router would have been rejected by the worker too.
func TestRouterOversizeBody413(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	rt := newTestRouter(t, []*fakeWorker{w1}, nil)
	srv := httptest.NewServer(NewHTTPHandler(rt))
	t.Cleanup(srv.Close)

	body := bytes.Repeat([]byte("x"), httpapi.MaxInvokeBodyBytes+1)
	resp, err := http.Post(srv.URL+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "exceeds") {
		t.Errorf("413 body %q should name the cap", msg)
	}
}

// BenchmarkRoutedInvoke measures the routed path end to end over the
// loopback fleet (the bench routed_hash workload).
func BenchmarkRoutedInvoke(b *testing.B) {
	fw := &fakeWorker{id: "w1", healthStatus: httpapi.HealthOK}
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := httpapi.DecodeInvokeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := httpapi.InvokeResponse{Fn: req.Fn, Result: req.Payload, Worker: fw.id, Attempts: 1}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(httpapi.AppendInvokeResponse(nil, &out, 0))
	})
	fw.srv = httptest.NewServer(mux)
	defer fw.srv.Close()
	rt, err := New(Config{
		Workers:        []WorkerSpec{fw.spec()},
		ProbeTimeout:   500 * time.Millisecond,
		RetryBackoff:   -1,
		ForwardTimeout: 2 * time.Second,
	})
	if err != nil {
		b.Fatalf("router.New: %v", err)
	}
	defer func() { _ = rt.Close() }()
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()
	body := []byte(`{"fn":"fib","payload":{"n":1}}`)
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatalf("POST: %v", err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatalf("read: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
}
