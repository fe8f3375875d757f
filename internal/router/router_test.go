package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/httpapi"
)

// fakeWorker is a scriptable worker gateway: /invoke and /healthz with
// adjustable behaviour, so registry transitions and failover are testable
// without real platforms.
type fakeWorker struct {
	id  string
	srv *httptest.Server

	mu           sync.Mutex
	healthStatus string        // httpapi.Health* word for /healthz
	invokeDelay  time.Duration // handler latency
	invokeStatus int           // 0 = 200 with a real body
	served       int
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{id: id, healthStatus: httpapi.HealthOK}
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke", func(w http.ResponseWriter, r *http.Request) {
		var req httpapi.InvokeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fw.mu.Lock()
		delay, status := fw.invokeDelay, fw.invokeStatus
		fw.served++
		fw.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if status != 0 {
			http.Error(w, "scripted failure", status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(httpapi.InvokeResponse{
			Fn: req.Fn, Result: req.Payload, Worker: fw.id, Attempts: 1,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		status := fw.healthStatus
		fw.mu.Unlock()
		code := http.StatusOK
		if status != httpapi.HealthOK {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(httpapi.HealthResponse{
			Status: status, Worker: fw.id,
		})
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

func (fw *fakeWorker) set(f func(*fakeWorker)) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	f(fw)
}

func (fw *fakeWorker) servedCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.served
}

func (fw *fakeWorker) spec() WorkerSpec {
	return WorkerSpec{ID: fw.id, URL: fw.srv.URL}
}

// newTestRouter builds a router over fake workers with fast timeouts and
// no backoff. Callers tweak cfg first via mut.
func newTestRouter(t *testing.T, workers []*fakeWorker, mut func(*Config)) *Router {
	t.Helper()
	specs := make([]WorkerSpec, len(workers))
	for i, fw := range workers {
		specs[i] = fw.spec()
	}
	cfg := Config{
		Workers:        specs,
		ProbeTimeout:   500 * time.Millisecond,
		RetryBackoff:   -1, // no sleeping in tests
		ForwardTimeout: 2 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

func routedReq(fn string) httpapi.RoutedInvokeRequest {
	return httpapi.RoutedInvokeRequest{Fn: fn, Payload: json.RawMessage(`{"n":1}`)}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestRouterForwardSuccess(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	rt := newTestRouter(t, []*fakeWorker{w1, w2}, nil)

	owner, _ := ringOwner(rt.Registry(), "fib")
	res, err := rt.Invoke(context.Background(), routedReq("fib"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Worker != owner {
		t.Fatalf("Worker = %q, ring owner = %q", res.Worker, owner)
	}
	if res.ForwardAttempts != 1 {
		t.Fatalf("ForwardAttempts = %d, want 1", res.ForwardAttempts)
	}
	if res.Fn != "fib" || string(res.Result) != `{"n":1}` {
		t.Fatalf("response = %+v", res)
	}
	st := rt.Stats()
	if st.Routed != 1 || st.Completed != 1 || st.Forwarded != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Affinity: the same function keeps landing on the same worker.
	for i := 0; i < 10; i++ {
		res, err := rt.Invoke(context.Background(), routedReq("fib"))
		if err != nil {
			t.Fatalf("Invoke #%d: %v", i, err)
		}
		if res.Worker != owner {
			t.Fatalf("affinity broken: invoke #%d went to %q, want %q", i, res.Worker, owner)
		}
	}
}

func TestRouterPassThrough(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w1.set(func(fw *fakeWorker) { fw.invokeStatus = http.StatusBadRequest })
	rt := newTestRouter(t, []*fakeWorker{w1}, nil)

	_, err := rt.Invoke(context.Background(), routedReq("fib"))
	var pass *PassThroughError
	if !errors.As(err, &pass) {
		t.Fatalf("err = %v, want PassThroughError", err)
	}
	if pass.Status != http.StatusBadRequest || pass.Worker != "w1" {
		t.Fatalf("pass-through = %+v", pass)
	}
	if !strings.Contains(pass.Body, "scripted failure") {
		t.Fatalf("body = %q", pass.Body)
	}
	// The worker answered: one attempt, no retries, still up.
	if st := rt.Stats(); st.Retries != 0 || st.Errors != 0 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rt.Registry().State("w1") != WorkerUp {
		t.Fatal("answering worker marked down")
	}
}

// TestRouterFailover kills the ring owner's listener and asserts the
// invocation fails over to the surviving replica with nothing lost.
func TestRouterFailover(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	rt := newTestRouter(t, []*fakeWorker{w1, w2}, func(cfg *Config) {
		cfg.MaxAttempts = 3
		cfg.MarkDownAfter = 1
	})
	owner, _ := ringOwner(rt.Registry(), "fib")
	victim, survivor := w1, w2
	if owner == "w2" {
		victim, survivor = w2, w1
	}
	victim.srv.Close() // connection refused from here on

	res, err := rt.Invoke(context.Background(), routedReq("fib"))
	if err != nil {
		t.Fatalf("Invoke with dead owner: %v", err)
	}
	if res.Worker != survivor.id {
		t.Fatalf("Worker = %q, want survivor %q", res.Worker, survivor.id)
	}
	if res.ForwardAttempts != 2 {
		t.Fatalf("ForwardAttempts = %d, want 2", res.ForwardAttempts)
	}
	st := rt.Stats()
	if st.Retries != 1 || st.Failovers != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// MarkDownAfter=1: the failed forward already marked the victim down,
	// so the next invocation goes straight to the survivor.
	if rt.Registry().State(victim.id) != WorkerDown {
		t.Fatal("victim not marked down after forward failure")
	}
	res, err = rt.Invoke(context.Background(), routedReq("fib"))
	if err != nil || res.ForwardAttempts != 1 {
		t.Fatalf("post-mark-down invoke: res=%+v err=%v", res, err)
	}
}

// TestRouterChaosRetries drives a deterministic injected-failure schedule
// through the forwarder: every invocation completes (zero lost) while the
// injector forces retries.
func TestRouterChaosRetries(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	inj := chaos.MustNew(chaos.Config{
		Seed:  7,
		Rates: map[chaos.Kind]float64{chaos.WorkerFailure: 0.4},
	})
	rt := newTestRouter(t, []*fakeWorker{w1, w2}, func(cfg *Config) {
		cfg.MaxAttempts = 8
		cfg.Chaos = inj
		// Keep injected failures from marking workers down mid-test: the
		// point here is the retry/failover path, not membership churn.
		cfg.MarkDownAfter = 1000
	})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := rt.Invoke(context.Background(), routedReq("fib")); err != nil {
			t.Fatalf("invocation %d lost: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Completed != n {
		t.Fatalf("Completed = %d, want %d", st.Completed, n)
	}
	if st.Retries == 0 {
		t.Fatal("chaos at rate 0.4 caused no retries")
	}
	if w1.servedCount()+w2.servedCount() != n {
		t.Fatalf("workers served %d+%d, want %d", w1.servedCount(), w2.servedCount(), n)
	}
}

func TestRouterNoWorkers(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	rt := newTestRouter(t, []*fakeWorker{w1}, func(cfg *Config) { cfg.MarkDownAfter = 1 })
	rt.Registry().NoteResult("w1", false)
	_, err := rt.Invoke(context.Background(), routedReq("fib"))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if st := rt.Stats(); st.NoWorkers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRouterProbeTransitions drives the prober against a worker that
// turns unhealthy and recovers: mark-down shrinks the ring and mark-up
// regrows it.
func TestRouterProbeTransitions(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	rt := newTestRouter(t, []*fakeWorker{w1, w2}, func(cfg *Config) {
		cfg.MarkDownAfter = 2
		cfg.MarkUpAfter = 2
	})
	ctx := context.Background()

	rt.ProbeAll(ctx)
	if st := rt.Stats(); st.Probes != 2 || st.ProbeFailures != 0 {
		t.Fatalf("stats after healthy round = %+v", st)
	}

	// w2 starts draining: two failed rounds mark it down.
	w2.set(func(fw *fakeWorker) { fw.healthStatus = httpapi.HealthDraining })
	rt.ProbeAll(ctx)
	if rt.Registry().State("w2") != WorkerUp {
		t.Fatal("one failed probe should not mark down")
	}
	rt.ProbeAll(ctx)
	if rt.Registry().State("w2") != WorkerDown {
		t.Fatal("two failed probes should mark down")
	}
	if rt.Registry().UpCount() != 1 {
		t.Fatalf("UpCount = %d, want 1", rt.Registry().UpCount())
	}

	// Recovery: two healthy rounds mark it back up.
	w2.set(func(fw *fakeWorker) { fw.healthStatus = httpapi.HealthOK })
	rt.ProbeAll(ctx)
	rt.ProbeAll(ctx)
	if rt.Registry().State("w2") != WorkerUp {
		t.Fatal("two healthy probes should mark up")
	}
	if downs, ups := rt.Registry().Transitions(); downs != 1 || ups != 1 {
		t.Fatalf("Transitions = %d/%d", downs, ups)
	}
	if st := rt.Stats(); st.ProbeFailures == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRouterProbeLoop covers Start/Close with a real ticker.
func TestRouterProbeLoop(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	rt := newTestRouter(t, []*fakeWorker{w1}, func(cfg *Config) {
		cfg.ProbeInterval = 10 * time.Millisecond
	})
	rt.Start()
	rt.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().Probes == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.Stats().Probes == 0 {
		t.Fatal("prober never fired")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rt.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

func TestRouterInvokeTimeout(t *testing.T) {
	w1 := newFakeWorker(t, "w1")
	w1.set(func(fw *fakeWorker) { fw.invokeDelay = 500 * time.Millisecond })
	rt := newTestRouter(t, []*fakeWorker{w1}, func(cfg *Config) { cfg.MaxAttempts = 1 })
	req := routedReq("fib")
	req.TimeoutMillis = 50
	start := time.Now()
	_, err := rt.Invoke(context.Background(), req)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
