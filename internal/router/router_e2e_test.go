// End-to-end tests for the routing tier, in an external test package so
// they can import internal/cluster (which itself imports internal/router
// for the shared ring) without a cycle. The workers here are real
// platforms — the same internal/platform the faasgate binary runs — so
// the router is exercised against the true /invoke and /healthz surfaces.
package router_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/platform"
	"faasbatch/internal/router"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// liveWorker is one real platform behind an httptest listener.
type liveWorker struct {
	id  string
	p   *platform.Platform
	srv *httptest.Server
}

// newLiveWorker boots a platform gateway with the worker-mode settings
// the faasgate binary would use.
func newLiveWorker(t *testing.T, id string) *liveWorker {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.DispatchInterval = 10 * time.Millisecond
	cfg.ColdStart = 0
	cfg.WorkerID = id
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
	err = p.Register("slow", func(ctx context.Context, inv *platform.Invocation) (any, error) {
		select {
		case <-time.After(300 * time.Millisecond):
		case <-ctx.Done():
		}
		return "done", nil
	})
	if err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(platform.NewHTTPHandler(p))
	t.Cleanup(srv.Close)
	return &liveWorker{id: id, p: p, srv: srv}
}

// newFleet boots n live workers named cluster.NodeMember(i) — the same
// ring member names the simulator uses, so assignments agree.
func newFleet(t *testing.T, n int) []*liveWorker {
	t.Helper()
	fleet := make([]*liveWorker, n)
	for i := range fleet {
		fleet[i] = newLiveWorker(t, cluster.NodeMember(i))
	}
	return fleet
}

func fleetRouter(t *testing.T, fleet []*liveWorker, mut func(*router.Config)) *router.Router {
	t.Helper()
	specs := make([]router.WorkerSpec, len(fleet))
	for i, w := range fleet {
		specs[i] = router.WorkerSpec{ID: w.id, URL: w.srv.URL}
	}
	cfg := router.Config{
		Workers:        specs,
		RetryBackoff:   -1,
		ForwardTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// TestEndToEndFailover is the PR's acceptance run: one router over three
// in-process workers, a worker killed mid-run, zero lost invocations,
// ring ownership reassigned to the survivors, and the per-worker
// forwarded counters on /metrics summing to the driven total.
func TestEndToEndFailover(t *testing.T) {
	fleet := newFleet(t, 3)
	rt := fleetRouter(t, fleet, func(cfg *router.Config) {
		cfg.MarkDownAfter = 1 // a dead socket is decisive
		cfg.MaxAttempts = 4
	})
	fns := make([]string, 6)
	for i := range fns {
		fns[i] = fmt.Sprintf("e2e-fn-%d", i)
	}

	// Routing by one fn name would pin everything to one worker; the run
	// must spread across the fleet, so drive distinct function names,
	// registered on every worker (as a real fleet deployment would).
	for _, w := range fleet {
		for _, fn := range fns {
			fn := fn
			err := w.p.Register(fn, func(_ context.Context, inv *platform.Invocation) (any, error) {
				return json.RawMessage(inv.Payload), nil
			})
			if err != nil {
				t.Fatalf("Register(%s): %v", fn, err)
			}
		}
	}
	drive := func(perFn int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, perFn*len(fns))
		for _, fn := range fns {
			for i := 0; i < perFn; i++ {
				wg.Add(1)
				go func(fn string) {
					defer wg.Done()
					res, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{
						Fn: fn, Payload: json.RawMessage(`{"n":1}`),
					})
					if err == nil && res.Fn != fn {
						err = fmt.Errorf("response fn %q, want %q", res.Fn, fn)
					}
					errs <- err
				}(fn)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("invocation lost: %v", err)
			}
		}
	}

	const perFn = 10
	drive(perFn) // healthy wave

	// Ownership before the kill, for the rebalance assertion.
	ownersBefore := make(map[string]string, len(fns))
	for _, fn := range fns {
		owner, ok := ringOwner(rt.Registry(), fn)
		if !ok {
			t.Fatalf("Owner(%s) failed", fn)
		}
		ownersBefore[fn] = owner
	}

	// Kill the owner of the first function mid-run.
	victimID := ownersBefore[fns[0]]
	var victim *liveWorker
	for _, w := range fleet {
		if w.id == victimID {
			victim = w
		}
	}
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	drive(perFn) // failover wave: zero lost

	// The victim is down and owns nothing; its functions moved to
	// survivors, functions owned by survivors stayed put.
	if st := rt.Registry().State(victimID); st != router.WorkerDown {
		t.Fatalf("victim state = %v, want down", st)
	}
	if up := rt.Registry().UpCount(); up != 2 {
		t.Fatalf("UpCount = %d, want 2", up)
	}
	moved := 0
	for _, fn := range fns {
		owner, ok := ringOwner(rt.Registry(), fn)
		if !ok {
			t.Fatalf("Owner(%s) failed after kill", fn)
		}
		if owner == victimID {
			t.Fatalf("fn %s still owned by dead worker", fn)
		}
		if ownersBefore[fn] == victimID {
			moved++
		} else if owner != ownersBefore[fn] {
			t.Errorf("fn %s moved %s -> %s though its owner survived", fn, ownersBefore[fn], owner)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned none of the driven functions; pick more fns")
	}

	// Accounting: everything driven was completed, and the per-worker
	// forwarded counters on /metrics sum to the driven total.
	total := int64(2 * perFn * len(fns))
	st := rt.Stats()
	if st.Completed != total {
		t.Fatalf("Completed = %d, want %d", st.Completed, total)
	}
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var sum int64
	perWorker := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `faasrouter_worker_forwarded_total{worker="`) {
			continue
		}
		parts := strings.Fields(line)
		v, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		name := strings.TrimSuffix(strings.TrimPrefix(parts[0], `faasrouter_worker_forwarded_total{worker="`), `"}`)
		perWorker[name] = v
		sum += v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan /metrics: %v", err)
	}
	if sum != total {
		t.Fatalf("per-worker forwarded sum = %d (%v), want %d", sum, perWorker, total)
	}
	for _, w := range fleet {
		if w.id != victimID && perWorker[w.id] == 0 {
			t.Errorf("survivor %s forwarded nothing: %v", w.id, perWorker)
		}
	}
}

// TestEndToEndOverload drives the admission controller through the HTTP
// surface: with one slot and no queue, a second concurrent invocation is
// shed with 429 and a whole-second Retry-After header.
func TestEndToEndOverload(t *testing.T) {
	fleet := newFleet(t, 1)
	rt := fleetRouter(t, fleet, func(cfg *router.Config) {
		cfg.FnConcurrency = 1
		cfg.QueueDepth = 0
		cfg.QueueWait = 200 * time.Millisecond
	})
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()

	// Occupy the one slot with a slow invocation.
	done := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: "slow"})
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().Routed == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if rt.Stats().Routed == 0 {
		t.Fatal("slow invocation never admitted")
	}

	resp, err := http.Post(srv.URL+"/invoke", "application/json",
		strings.NewReader(`{"fn":"slow"}`))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow invocation failed: %v", err)
	}
	if st := rt.Stats(); st.Shed == 0 {
		t.Fatalf("stats = %+v, want Shed > 0", st)
	}
}

// TestSimVsLiveAssignments replays the simulator's consistent-hash
// decision sequence against the live router and asserts they agree
// function by function: the sim's cluster dispatcher and the live
// routing tier share one ring implementation and one member naming
// scheme, so scheduling conclusions drawn in simulation transfer.
func TestSimVsLiveAssignments(t *testing.T) {
	const nodes = 3
	fleet := newFleet(t, nodes)
	rt := fleetRouter(t, fleet, nil)

	fns := make([]string, 12)
	for i := range fns {
		fns[i] = fmt.Sprintf("conform-fn-%d", i)
	}
	for _, w := range fleet {
		for _, fn := range fns {
			fn := fn
			err := w.p.Register(fn, func(_ context.Context, inv *platform.Invocation) (any, error) {
				return "ok", nil
			})
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
	}

	// The simulator's decisions: one submission per function through a
	// consistent-hash cluster of the same size.
	eng := sim.New(1)
	cl, err := cluster.New(eng, cluster.Config{Nodes: nodes, Balancing: cluster.ConsistentHash})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer func() { _ = cl.Close() }()
	assigned := make(map[string]int, len(fns))
	for i, fn := range fns {
		inv := fnruntime.NewInvocation(int64(i), workload.IOSpec(fn), eng.Now())
		cl.Submit(inv, func(*fnruntime.Invocation) {})
		assigned[fn] = inv.Route.Worker
	}
	distinct := map[int]bool{}
	for _, fn := range fns {
		want := cluster.NodeMember(assigned[fn])
		// The registry's idle-fleet pick must agree...
		owner, ok := ringOwner(rt.Registry(), fn)
		if !ok || owner != want {
			t.Fatalf("live Owner(%s) = %q, sim assigned %q", fn, owner, want)
		}
		// ...and so must the worker that actually serves the invocation.
		res, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: fn})
		if err != nil {
			t.Fatalf("Invoke(%s): %v", fn, err)
		}
		if res.Worker != want {
			t.Fatalf("live invoke of %s served by %q, sim assigned %q", fn, res.Worker, want)
		}
		distinct[assigned[fn]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("12 functions over %d nodes used %d node(s); ring spread is broken", nodes, len(distinct))
	}
}

// TestEndToEndHealthz covers the router's own health surface through a
// worker's life cycle.
func TestEndToEndHealthz(t *testing.T) {
	fleet := newFleet(t, 1)
	rt := fleetRouter(t, fleet, func(cfg *router.Config) { cfg.MarkDownAfter = 1 })
	srv := httptest.NewServer(router.NewHTTPHandler(rt))
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp.StatusCode, body.Status
	}
	if code, status := get(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet: %d %q", code, status)
	}
	// Worker begins draining: the probe sees 503 "draining" and marks it
	// down; with the whole fleet down the router itself reports 503.
	fleet[0].p.SetReady(false)
	go func() { _ = fleet[0].p.Close() }()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Registry().UpCount() > 0 && time.Now().Before(deadline) {
		rt.ProbeAll(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
	if code, status := get(); code != http.StatusServiceUnavailable || status != "no-workers" {
		t.Fatalf("dead fleet: %d %q", code, status)
	}
}

// ringOwner is the ring owner of fn on an idle fleet: the first
// bounded-load candidate, which no load has pushed down the order.
func ringOwner(reg *router.Registry, fn string) (string, bool) {
	if c := reg.Candidates(fn, router.DefaultLoadBound); len(c) > 0 {
		return c[0], true
	}
	return "", false
}
