package platform

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
)

// getHealth reads /healthz and decodes the wire body.
func getHealth(t *testing.T, url string) (int, httpapi.HealthResponse) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var body httpapi.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return resp.StatusCode, body
}

// TestHealthzReadinessLifecycle walks /healthz through the full worker
// life cycle: 503 "unready" before registration completes, 200 "ok"
// after SetReady(true), 503 "draining" once Close begins — the truthful
// signal the routing tier's prober keys off.
func TestHealthzReadinessLifecycle(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.WorkerID = "w-test"
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(NewHTTPHandler(p))
	defer srv.Close()

	// Fresh platform: not ready yet.
	if p.Ready() {
		t.Fatal("fresh platform reports ready")
	}
	code, body := getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable || body.Status != httpapi.HealthUnready {
		t.Fatalf("pre-registration: %d %q, want 503 unready", code, body.Status)
	}
	if body.Worker != "w-test" {
		t.Fatalf("identity lost: %+v", body)
	}

	// Registration complete.
	p.SetReady(true)
	if !p.Ready() || p.Draining() {
		t.Fatalf("Ready=%v Draining=%v after SetReady", p.Ready(), p.Draining())
	}
	code, body = getHealth(t, srv.URL)
	if code != http.StatusOK || body.Status != httpapi.HealthOK {
		t.Fatalf("ready: %d %q, want 200 ok", code, body.Status)
	}

	// Draining: overrides readiness.
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if p.Ready() || !p.Draining() {
		t.Fatalf("Ready=%v Draining=%v after Close", p.Ready(), p.Draining())
	}
	code, body = getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable || body.Status != httpapi.HealthDraining {
		t.Fatalf("draining: %d %q, want 503 draining", code, body.Status)
	}

	// SetReady cannot resurrect a draining platform.
	p.SetReady(true)
	if p.Ready() {
		t.Fatal("SetReady(true) resurrected a closed platform")
	}
}

func TestInvokeWorksBeforeReady(t *testing.T) {
	// Readiness gates the routing tier's health probe, not the invoke
	// path: a directly-addressed invocation still runs (the standalone
	// gateway has no registration phase worth failing requests over).
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "echo", json.RawMessage(`1`)); err != nil {
		t.Fatalf("Invoke before SetReady: %v", err)
	}
}

func TestCloseContextHonoursDeadline(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("hang", func(ctx context.Context, _ *Invocation) (any, error) {
		time.Sleep(300 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Invoke(context.Background(), "hang", nil)
	}()
	// Let the invocation get submitted before draining.
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = p.CloseContext(ctx)
	if err == nil {
		t.Fatal("CloseContext beat a 300ms handler with a 1ms deadline")
	}
	if !strings.Contains(err.Error(), "drain exceeded") {
		t.Fatalf("error = %v, want drain-exceeded", err)
	}
	<-done
	// Second close is idempotent and error-free.
	if err := p.CloseContext(context.Background()); err != nil {
		t.Fatalf("second CloseContext: %v", err)
	}
}

// TestCloseContextSecondCallWaitsForDrain checks that Close is one
// contract however many times it is called: after a first call gives up
// on its deadline, a second call without one returns only once the
// drain the first started has finished — the handler has returned and
// no container is left live.
func TestCloseContextSecondCallWaitsForDrain(t *testing.T) {
	p, err := New(quickConfig(ModeBatch))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var returned atomic.Bool
	if err := p.Register("slow", func(context.Context, *Invocation) (any, error) {
		time.Sleep(300 * time.Millisecond)
		returned.Store(true)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Invoke(context.Background(), "slow", nil)
	}()
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := p.CloseContext(ctx); err == nil {
		t.Fatal("first CloseContext beat a 300ms handler with a 1ms deadline")
	}
	if err := p.CloseContext(context.Background()); err != nil {
		t.Fatalf("second CloseContext: %v", err)
	}
	if !returned.Load() {
		t.Error("second CloseContext returned while the handler was still running")
	}
	if live := p.Stats().LiveContainers; live != 0 {
		t.Errorf("LiveContainers = %d after the second CloseContext, want 0", live)
	}
	<-done
}

func TestCloseContextWaitsWithoutDeadline(t *testing.T) {
	p, err := New(quickConfig(ModeBatch))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Invoke(context.Background(), "echo", json.RawMessage(`1`))
	}()
	time.Sleep(30 * time.Millisecond)
	if err := p.CloseContext(context.Background()); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight invocation never completed")
	}
}

func TestInflightGauge(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("idle Inflight = %d", got)
	}
	if _, err := p.Invoke(context.Background(), "echo", json.RawMessage(`1`)); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("post-completion Inflight = %d", got)
	}
}
