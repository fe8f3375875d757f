package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"testing"
	"time"

	"faasbatch/internal/pullsched"
)

// TestPullBindingReuseAfterRacingRegrants: Next returns on its
// cancelled context while the grant is being delivered, so the grant
// lands in the binding's channel after the waiter gave up. Done aborts
// the lease and recycles the binding; the next invocation to take it
// holds only its own grant.
func TestPullBindingReuseAfterRacingRegrants(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1")}
	rt := newPullRouter(t, workers, &pullsched.Config{Capacity: 1, BatchSize: 1})
	pp := rt.policy.(*pullPolicy)
	ctx := context.Background()

	holder, err := pp.Assign(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if w, err := holder.Next(ctx, 1); err != nil || w != "w1" {
		t.Fatalf("holder: %q, %v", w, err)
	}
	bnd, err := pp.Assign(ctx, "hot") // queued behind the only lease
	if err != nil {
		t.Fatal(err)
	}
	b := bnd.(*pullBinding)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.Next(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Next on a cancelled context: %v", err)
	}
	// The holder's ack frees the lease and grants b before b's forward
	// settles: the grant sits unread in b's channel.
	holder.Done(true)
	if len(b.ch) != 1 {
		t.Fatalf("b's channel holds %d grants, want the late one", len(b.ch))
	}
	b.Done(false)

	bnd, err = pp.Assign(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	next := bnd.(*pullBinding)
	if next != b {
		t.Fatal("the settled binding was not recycled")
	}
	if len(next.ch) != 1 {
		t.Fatalf("recycled binding holds %d grants, want its own one", len(next.ch))
	}
	g := <-next.ch
	if g.ID != next.id || g.Requeue {
		t.Fatalf("recycled binding received %+v, want a first grant of id %d", g, next.id)
	}
	next.ch <- g
	if _, err := next.Next(ctx, 1); err != nil {
		t.Fatal(err)
	}
	next.Done(true)
	st := pp.Stats()
	if st.Enqueued != 3 || st.Completed != 2 || st.Aborted != 1 || st.Queued != 0 || st.Leases != 0 {
		t.Fatalf("core stats: %+v", st)
	}
}

// TestPullBindingStress runs concurrent callers through the pull policy
// against two workers, one of which fails every forward, with random
// cancellations: failed forwards requeue, cancelled ones abort queued
// and leased invocations alike, and bindings recycle under all of it.
// Under the race build a second grant for one invocation panics in
// deliverLocked, so a clean run shows it never happens. At quiescence
// the core holds nothing and every admitted invocation was acked or
// aborted; a lost lease strands callers, which the watchdog reports.
func TestPullBindingStress(t *testing.T) {
	good, bad := newFakeWorker(t, "good"), newFakeWorker(t, "bad")
	good.set(func(w *fakeWorker) { w.invokeDelay = 200 * time.Microsecond })
	bad.set(func(w *fakeWorker) { w.invokeStatus = http.StatusServiceUnavailable })
	rt := newTestRouter(t, []*fakeWorker{good, bad}, func(cfg *Config) {
		cfg.Policy = PolicyPull
		cfg.Pull = &pullsched.Config{Capacity: 2, BatchSize: 1}
		cfg.MarkDownAfter = 1 << 30 // keep the failing worker pulling
	})
	const callers, calls = 6, 60
	timeouts := []time.Duration{0, -1, 100 * time.Microsecond, time.Millisecond}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		rng := rand.New(rand.NewPCG(uint64(c), 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch d := timeouts[rng.IntN(len(timeouts))]; {
				case d < 0:
					ctx, cancel = context.WithCancel(ctx)
					cancel() // gone before it is admitted
				case d > 0:
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				_, _ = rt.Invoke(ctx, routedReq(fmt.Sprintf("fn-%d", rng.IntN(3))))
				cancel()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// A lost lease strands every uncancelled caller; the router's
		// Close in cleanup releases them. No Stats here: a stuck policy
		// lock would hang the report too.
		t.Fatal("callers stuck for 30s")
	}
	st := rt.policy.Stats()
	if st.Queued != 0 || st.Leases != 0 || st.Enqueued != st.Completed+st.Aborted {
		t.Fatalf("core not quiescent or not conserved: %+v", st)
	}
	if st.Enqueued != callers*calls || st.Requeues == 0 || st.Aborted == 0 || st.Completed == 0 {
		t.Fatalf("stress did not reach every path: %+v", st)
	}
}

// mustPanic runs f and fails t unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestBindingPoison: under the race build, a binding touched after Done,
// and a pull binding recycled while its lease id still waits for a
// grant, panic.
func TestBindingPoison(t *testing.T) {
	if !poison {
		t.Skip("the one-owner check rides the race build")
	}
	ctx := context.Background()
	workers := []*fakeWorker{newFakeWorker(t, "w1")}
	for _, rt := range []*Router{newTestRouter(t, workers, nil), newPullRouter(t, workers, nil)} {
		name := rt.policy.Name()
		b, err := rt.policy.Assign(ctx, "hot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Next(ctx, 1); err != nil {
			t.Fatal(err)
		}
		b.Done(true)
		mustPanic(t, name+" Next after Done", func() { _, _ = b.Next(ctx, 1) })
		mustPanic(t, name+" Done after Done", func() { b.Done(true) })
	}

	pp := newPullRouter(t, workers, nil).policy.(*pullPolicy)
	b, err := pp.Assign(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "recycling a waiting pull binding", func() {
		pp.mu.Lock()
		defer pp.mu.Unlock()
		pp.releaseLocked(b.(*pullBinding))
	})
}
