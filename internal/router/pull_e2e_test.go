package router

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faasbatch/internal/pullsched"
)

// newPullRouter builds a pull-policy router over fake workers.
func newPullRouter(t *testing.T, workers []*fakeWorker, pcfg *pullsched.Config) *Router {
	t.Helper()
	return newTestRouter(t, workers, func(cfg *Config) {
		cfg.Policy = PolicyPull
		cfg.Pull = pcfg
	})
}

// TestPullInvokeBasic: the pull policy serves a healthy fleet and its
// core quiesces with conservation intact.
func TestPullInvokeBasic(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	for _, fw := range workers {
		fw.set(func(w *fakeWorker) { w.invokeDelay = 50 * time.Millisecond })
	}
	rt := newPullRouter(t, workers, nil)
	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := 0; i < 10; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.Invoke(context.Background(), routedReq(fmt.Sprintf("fn-%d", i%3)))
			if err == nil && resp.Worker != "w1" && resp.Worker != "w2" {
				err = fmt.Errorf("served by %q", resp.Worker)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	st := rt.policy.Stats()
	if st.Enqueued != 10 || st.Completed != 10 || st.Queued != 0 || st.Leases != 0 {
		t.Fatalf("core stats after 10 invokes: %+v", st)
	}
	if ps := rt.Policy().Stats(); rt.Policy().Name() != PolicyPull || ps.Granted != 10 {
		t.Fatalf("policy stats: %+v", ps)
	}
	if workers[0].servedCount() == 0 || workers[1].servedCount() == 0 {
		t.Fatalf("late binding should use both idle workers: w1=%d w2=%d",
			workers[0].servedCount(), workers[1].servedCount())
	}
}

// TestPullLeaseRequeuedOnceOnWorkerCrash: a worker dies mid-lease
// (connection refused); the lease requeues exactly once, the re-grant
// late-binds to the survivor, and conservation holds — the live half of
// the zero-lost-invocations guarantee.
func TestPullLeaseRequeuedOnceOnWorkerCrash(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	rt := newPullRouter(t, workers, nil)
	// Kill w1's listener: the first grant goes to the least-loaded
	// lowest slot (w1), whose forward now fails at the socket.
	workers[0].srv.Close()
	resp, err := rt.Invoke(context.Background(), routedReq("hot"))
	if err != nil {
		t.Fatalf("invoke across crash: %v", err)
	}
	if resp.Worker != "w2" {
		t.Fatalf("served by %q, want failover to w2", resp.Worker)
	}
	if resp.ForwardAttempts != 2 {
		t.Fatalf("ForwardAttempts = %d, want 2", resp.ForwardAttempts)
	}
	st := rt.policy.Stats()
	if st.Requeues != 1 || st.Granted != 2 {
		t.Fatalf("lease should requeue exactly once: %+v", st)
	}
	if st.Enqueued != st.Completed+st.Aborted || st.Leases != 0 {
		t.Fatalf("conservation after crash: %+v", st)
	}
	rst := rt.Stats()
	if rst.Retries != 1 || rst.Failovers != 1 || rst.Completed != 1 {
		t.Fatalf("router stats after crash: %+v", rst)
	}
}

// TestPullShedsAtQueueDepth: with one slow single-slot worker and a
// depth-1 queue, a third concurrent arrival sheds as a 429-style
// OverloadError and the Shed counter moves — queue-depth admission
// control replacing the per-function semaphore.
func TestPullShedsAtQueueDepth(t *testing.T) {
	fw := newFakeWorker(t, "w1")
	fw.set(func(w *fakeWorker) { w.invokeDelay = 300 * time.Millisecond })
	rt := newPullRouter(t, []*fakeWorker{fw}, &pullsched.Config{
		Capacity:   1,
		BatchSize:  1,
		QueueDepth: 1,
	})
	const calls = 4
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = rt.Invoke(context.Background(), routedReq("hot"))
			// Stagger just enough that at least the first caller holds
			// the lease before the last arrives.
		}()
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	var served, shed int
	for _, err := range errs {
		var overload *OverloadError
		switch {
		case err == nil:
			served++
		case errors.As(err, &overload):
			if overload.Reason != "pull queue full" {
				t.Fatalf("unexpected overload reason %q", overload.Reason)
			}
			shed++
		default:
			t.Fatalf("unexpected invoke error: %v", err)
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("want a mix of served and shed: served=%d shed=%d", served, shed)
	}
	st := rt.Stats()
	if st.Shed != int64(shed) || st.Routed != int64(served) {
		t.Fatalf("router stats: %+v (served=%d shed=%d)", st, served, shed)
	}
	cst := rt.policy.Stats()
	if cst.Shed != uint64(shed) || cst.Enqueued != cst.Completed+cst.Aborted {
		t.Fatalf("core stats: %+v", cst)
	}
}

// TestPullWakeOnActivation: with the whole fleet retired, an invocation
// queues in the pull core; activating a worker fires the registry
// membership hook, which wakes the queue and late-binds the invocation
// to the new capacity — the pull half of scale-from-zero.
func TestPullWakeOnActivation(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	rt := newPullRouter(t, workers, nil)
	rt.reg.Retire("w1")
	rt.reg.Retire("w2")
	type result struct {
		worker string
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := rt.Invoke(context.Background(), routedReq("hot"))
		resCh <- result{resp.Worker, err}
	}()
	// The invocation must be queued, not failed: no eligible worker.
	deadline := time.Now().Add(2 * time.Second)
	for rt.policy.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("invocation never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.reg.Activate("w2")
	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("invoke after wake: %v", res.err)
		}
		if res.worker != "w2" {
			t.Fatalf("served by %q, want the activated w2", res.worker)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wake never drained the queue")
	}
}

// TestPullAbortOnContextCancel: a queued invocation whose caller gives
// up is withdrawn (aborted), so it can never be served later and
// conservation still balances.
func TestPullAbortOnContextCancel(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1")}
	rt := newPullRouter(t, workers, nil)
	rt.reg.Retire("w1") // nothing eligible: the invocation must queue
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(ctx, routedReq("hot"))
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for rt.policy.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("invocation never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("invoke after cancel: %v", err)
	}
	st := rt.policy.Stats()
	if st.Aborted != 1 || st.Queued != 0 || st.Enqueued != st.Completed+st.Aborted {
		t.Fatalf("core stats after cancel: %+v", st)
	}
	// The withdrawn invocation must not resurface on the next wake.
	rt.reg.Activate("w1")
	time.Sleep(50 * time.Millisecond)
	if workers[0].servedCount() != 0 {
		t.Fatal("aborted invocation was served after the wake")
	}
}

// TestPullStatsSurface: /stats carries the policy block and /metrics
// the faasrouter_pull_* series under the pull policy; the hash policy
// reports its name with no pull series.
func TestPullStatsSurface(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1")}
	rt := newPullRouter(t, workers, nil)
	if _, err := rt.Invoke(context.Background(), routedReq("hot")); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	srv := httptest.NewServer(NewHTTPHandler(rt))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/cluster/metrics"} {
		doc := scrapeText(t, srv, path)
		pst := rt.policy.Stats()
		for _, ex := range pullSeries {
			if !strings.Contains(doc, fmt.Sprintf("# TYPE %s %s\n", ex.Name, ex.Kind)) {
				t.Errorf("%s missing TYPE header for %s", path, ex.Name)
			}
			if got, want := gaugeValue(doc, ex.Name), ex.Float(&pst); got != want {
				t.Errorf("%s: %s = %v, want %v", path, ex.Name, got, want)
			}
		}
	}
	if doc := string(rt.appendStats(nil)); !strings.Contains(doc, `"policy":{"policy":"pull","queued":0,"leases":0,"granted":1,`) {
		t.Fatalf("/stats policy block: %s", doc)
	}

	hashRt := newTestRouter(t, workers, nil)
	hashSrv := httptest.NewServer(NewHTTPHandler(hashRt))
	defer hashSrv.Close()
	if doc := scrapeText(t, hashSrv, "/metrics"); strings.Contains(doc, "faasrouter_pull_") {
		t.Error("hash policy exposes pull series")
	}
	if doc := string(hashRt.appendStats(nil)); !strings.Contains(doc, `"policy":{"policy":"hash","queued":0,`) {
		t.Fatalf("hash /stats policy block: %s", doc)
	}
}
