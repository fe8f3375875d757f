package router

import (
	"context"
	"testing"
	"time"

	"faasbatch/internal/pullsched"
)

// TestPullBindingReuseAfterRacingRegrants: a lease the sweep re-grants
// while its holder's failed attempt re-grants it too leaves a second
// grant in the binding's channel. Once the binding is settled and
// recycled, the next invocation to take it receives only its own grant.
func TestPullBindingReuseAfterRacingRegrants(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	rt := newPullRouter(t, workers, &pullsched.Config{LeaseBudget: time.Nanosecond})
	pp := rt.policy.(*pullPolicy)
	ctx := context.Background()

	bnd, err := pp.Assign(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	b := bnd.(*pullBinding)
	if w, err := b.Next(ctx, 1); err != nil || w != "w1" {
		t.Fatalf("first attempt: %q, %v", w, err)
	}
	time.Sleep(time.Millisecond)
	pp.sweep() // the lease expires and re-grants to w2
	if len(b.ch) != 1 {
		t.Fatalf("sweep delivered %d grants, want 1", len(b.ch))
	}
	// The holder's attempt fails: Fail requeues the sweep's lease and
	// re-grants it to w1, so two grants now sit in the channel.
	if w, err := b.Next(ctx, 2); err != nil || w != "w2" {
		t.Fatalf("second attempt: %q, %v", w, err)
	}
	if len(b.ch) != 1 {
		t.Fatalf("%d grants left behind, want the fail re-grant", len(b.ch))
	}
	b.Done(true)

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
	if st.Enqueued != 2 || st.Completed != 2 || st.Queued != 0 || st.Leases != 0 {
		t.Fatalf("core stats: %+v", st)
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
