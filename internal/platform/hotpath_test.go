package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs/obstest"
)

// hotpathConfig is the steady-state configuration the allocation gate
// measures: adaptive dispatch with single-call groups (every warm arrival
// takes the idle fast path or an early close, dispatched inline in the
// invoking goroutine), no cold-start simulation, no multiplexer, no
// tracer, no chaos.
func hotpathConfig() Config {
	return Config{
		Mode:             ModeBatch,
		DispatchInterval: 50 * time.Millisecond,
		AdaptiveDispatch: true,
		MaxGroupSize:     1,
		KeepAlive:        time.Minute,
	}
}

func noop(_ context.Context, _ *Invocation) (any, error) { return nil, nil }

// TestWarmInvokeAllocFree is the tentpole's acceptance gate in test form:
// a warm invocation through the sharded submit path — pooled pendingCall,
// pooled group, pooled invocation state, atomic counters — performs zero
// heap allocations. GC is disabled during the measurement because a
// collection clears sync.Pools mid-run, which would charge the refill to
// the invoke being measured.
func TestWarmInvokeAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented runtime allocates; sync.Pool randomly bypasses its caches)")
	}
	p, err := New(hotpathConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := p.Register("noop", noop); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx := context.Background()
	// Warm up: boot the container, prime the pools and the dispatch
	// controller's per-function state.
	for i := 0; i < 64; i++ {
		if _, err := p.Invoke(ctx, "noop", nil); err != nil {
			t.Fatalf("warm-up invoke: %v", err)
		}
	}
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := p.Invoke(ctx, "noop", nil); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Invoke allocates %.1f objects/op, want 0", avg)
	}
}

// TestShardedSubmitRaceStress hammers the per-function shards from many
// goroutines while Close drains concurrently, then checks the platform's
// conservation law: every accepted invocation completed or was canceled —
// none were lost in the closed/submit race. Run it under -race to check
// the shard handshake's ordering claims.
func TestShardedSubmitRaceStress(t *testing.T) {
	cfg := hotpathConfig()
	cfg.DispatchInterval = 2 * time.Millisecond
	cfg.MaxGroupSize = 4
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const fns = 8
	for i := 0; i < fns; i++ {
		if err := p.Register(fmt.Sprintf("fn-%d", i), noop); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*fns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn := fmt.Sprintf("fn-%d", g%fns)
			// Spin until the concurrent Close rejects the submit.
			for {
				if _, err := p.Invoke(context.Background(), fn, nil); err != nil {
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("invoke %s: %v", fn, err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	st := p.Stats()
	if st.Submitted == 0 {
		t.Fatal("stress produced no submissions")
	}
	if st.Submitted != st.Invocations+st.Canceled {
		t.Fatalf("conservation broken: Submitted=%d, Invocations=%d, Canceled=%d",
			st.Submitted, st.Invocations, st.Canceled)
	}
}

// TestInvokeOversizeBody413 pins the gateway's body cap: a request past
// MaxInvokeBodyBytes answers 413 (Request Entity Too Large), not the 400
// that used to mislabel the client's oversized-but-well-formed request as
// malformed.
func TestInvokeOversizeBody413(t *testing.T) {
	_, srv := newHTTPServer(t)
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
	// One byte under the cap is a well-formed-but-bad request, not 413.
	under := make([]byte, 0, httpapi.MaxInvokeBodyBytes)
	under = append(under, `{"fn":"double","payload":"`...)
	under = append(under, bytes.Repeat([]byte("y"), httpapi.MaxInvokeBodyBytes-len(under)-2)...)
	under = append(under, '"', '}')
	resp2, err := http.Post(srv.URL+"/invoke", "application/json", bytes.NewReader(under))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatalf("body within the cap answered 413")
	}
}

// TestRawMessagePassthroughByteEquality pins the raw-result fast path: a
// handler that already returns encoded JSON reaches the client verbatim —
// whitespace, key order and HTML-significant characters intact — instead
// of being re-marshalled (which would compact it and escape <, > and &).
func TestRawMessagePassthroughByteEquality(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	raw := json.RawMessage("{\n  \"html\": \"<a href='x'>&amp;</a>\",\n  \"n\":  1e2\n}")
	if err := p.Register("raw", func(_ context.Context, _ *Invocation) (any, error) {
		return raw, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Register("bad", func(_ context.Context, _ *Invocation) (any, error) {
		return json.RawMessage("{not json"), nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(NewHTTPHandler(p))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/invoke", "application/json",
		strings.NewReader(`{"fn":"raw"}`))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out httpapi.InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(out.Result, raw) {
		t.Fatalf("raw result altered in flight:\n got %q\nwant %q", out.Result, raw)
	}

	// A handler lying about its raw JSON is a server bug, not a pass.
	resp2, err := http.Post(srv.URL+"/invoke", "application/json",
		strings.NewReader(`{"fn":"bad"}`))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("invalid raw JSON status = %d, want 500", resp2.StatusCode)
	}
}

// BenchmarkWarmSubmit measures the sharded sim submit path (the
// bench ladder's platform.invoke rung).
func BenchmarkWarmSubmit(b *testing.B) {
	p, err := New(hotpathConfig())
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	if err := p.Register("noop", noop); err != nil {
		b.Fatalf("Register: %v", err)
	}
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "noop", nil); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "noop", nil); err != nil {
			b.Fatalf("invoke: %v", err)
		}
	}
}

// BenchmarkWarmSubmitParallel exercises shard independence: parallel
// submitters on distinct functions should scale without lock contention.
func BenchmarkWarmSubmitParallel(b *testing.B) {
	p, err := New(hotpathConfig())
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	const fns = 8
	for i := 0; i < fns; i++ {
		if err := p.Register(fmt.Sprintf("noop-%d", i), noop); err != nil {
			b.Fatalf("Register: %v", err)
		}
	}
	ctx := context.Background()
	for i := 0; i < fns; i++ {
		if _, err := p.Invoke(ctx, fmt.Sprintf("noop-%d", i), nil); err != nil {
			b.Fatalf("warm-up: %v", err)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fn := fmt.Sprintf("noop-%d", next.Add(1)%fns)
		for pb.Next() {
			if _, err := p.Invoke(ctx, fn, nil); err != nil {
				b.Errorf("invoke: %v", err)
				return
			}
		}
	})
}

// BenchmarkHTTPInvokeWarm measures the live gateway path end to end (the
// bench gateway_warm workload): HTTP decode, sharded submit,
// byte-oriented encode.
func BenchmarkHTTPInvokeWarm(b *testing.B) {
	p, err := New(hotpathConfig())
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	if err := p.Register("noop", noop); err != nil {
		b.Fatalf("Register: %v", err)
	}
	p.SetReady(true)
	h := NewHTTPHandler(p)
	body := []byte(`{"fn":"noop"}`)
	req, err := http.NewRequest(http.MethodPost, "/invoke", nil)
	if err != nil {
		b.Fatalf("NewRequest: %v", err)
	}
	w := &discardResponseWriter{header: make(http.Header)}
	req.Body = io.NopCloser(bytes.NewReader(body))
	h.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		b.Fatalf("warm-up status = %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status = 0
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
}

// discardResponseWriter is a minimal ResponseWriter so the gateway
// benchmark measures the handler, not net/http's connection machinery.
type discardResponseWriter struct {
	header http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header { return w.header }
func (w *discardResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *discardResponseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

// discardResponse is a reusable http.ResponseWriter that keeps nothing,
// so the handler allocation count below is the handler's own.
type discardResponse struct {
	h      http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }

// gatewayHandlerAllocs is what one warm POST /invoke costs inside the
// in-memory gateway handler (no net/http server around it): nothing. The
// body is read into a pooled buffer, the function is looked up from its
// bytes and the reply echoes the registered name, the reply is encoded
// into another pooled buffer and the Content-Type value is shared.
const gatewayHandlerAllocs = 0

// TestGatewayHandlerAllocs pins the in-memory gateway handler's
// per-request allocations, so the shared route/read/write skeleton
// cannot hide a per-request closure or a boxed buffer.
func TestGatewayHandlerAllocs(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, err := New(hotpathConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()
	if err := p.Register("noop", noop); err != nil {
		t.Fatalf("Register: %v", err)
	}
	h := NewHTTPHandler(p)
	body := []byte(`{"fn":"noop","payload":{"n":1}}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/invoke", rd)
	req.Body = io.NopCloser(rd)
	w := &discardResponse{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	for i := 0; i < 64; i++ {
		serve()
	}
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	if avg := testing.AllocsPerRun(200, serve); avg > gatewayHandlerAllocs {
		t.Fatalf("gateway handler allocates %.1f objects/op, want <= %d", avg, gatewayHandlerAllocs)
	} else {
		t.Logf("gateway handler: %.1f allocs/op", avg)
	}
}
