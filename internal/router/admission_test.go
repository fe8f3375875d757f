package router

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waiting reports how many invocations of fn are queued.
func waiting(a *admission, fn string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.fns[fn]; ok {
		return g.waiting
	}
	return 0
}

func TestAdmissionDisabled(t *testing.T) {
	a := newAdmission(0, 0, 0)
	for i := 0; i < 100; i++ {
		release, err := a.Acquire(context.Background(), "fn")
		if err != nil {
			t.Fatalf("disabled admission rejected: %v", err)
		}
		release()
	}
}

func TestAdmissionShedsAtQueueFull(t *testing.T) {
	a := newAdmission(1, 0, 50*time.Millisecond)
	release, err := a.Acquire(context.Background(), "fn")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	// Limit reached, queueDepth 0: immediate shed.
	_, err = a.Acquire(context.Background(), "fn")
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if overload.Reason != "queue full" || overload.Fn != "fn" {
		t.Fatalf("overload = %+v", overload)
	}
	if overload.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", overload.RetryAfter)
	}
	// Functions are isolated: another fn still admits.
	r2, err := a.Acquire(context.Background(), "other")
	if err != nil {
		t.Fatalf("other fn rejected: %v", err)
	}
	r2()
	// Releasing frees the slot.
	release()
	r3, err := a.Acquire(context.Background(), "fn")
	if err != nil {
		t.Fatalf("post-release Acquire: %v", err)
	}
	r3()
}

func TestAdmissionQueueWaitTimeout(t *testing.T) {
	a := newAdmission(1, 4, 30*time.Millisecond)
	release, err := a.Acquire(context.Background(), "fn")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer release()
	start := time.Now()
	_, err = a.Acquire(context.Background(), "fn")
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if overload.Reason != "queue wait exceeded" {
		t.Fatalf("reason = %q", overload.Reason)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("shed after %v, should have queued ~30ms first", elapsed)
	}
	if waiting(a, "fn") != 0 {
		t.Fatalf("waiting = %d after shed, want 0", waiting(a, "fn"))
	}
}

func TestAdmissionQueueAdmitsOnRelease(t *testing.T) {
	a := newAdmission(1, 4, time.Second)
	release, err := a.Acquire(context.Background(), "fn")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), "fn")
		if err == nil {
			r()
		}
		got <- err
	}()
	// Wait for the waiter to queue, then free the slot.
	deadline := time.Now().Add(time.Second)
	for waiting(a, "fn") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if waiting(a, "fn") != 1 {
		t.Fatal("waiter never queued")
	}
	release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued waiter rejected: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued waiter never admitted")
	}
}

func TestAdmissionDeadlineAware(t *testing.T) {
	a := newAdmission(1, 4, 10*time.Second)
	release, err := a.Acquire(context.Background(), "fn")
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer release()
	// Already-expired deadline: shed immediately, no 10s queue.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = a.Acquire(ctx, "fn")
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if overload.Reason != "deadline expired in queue" {
		t.Fatalf("reason = %q", overload.Reason)
	}
	// Deadline shorter than queueWait: wait is clipped to the deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = a.Acquire(ctx2, "fn")
	if err == nil {
		t.Fatal("expired waiter admitted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("queued %v; deadline should have clipped the 10s wait", elapsed)
	}
	// Cancellation propagates.
	ctx3, cancel3 := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel3() }()
	_, err = a.Acquire(ctx3, "fn")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAdmissionRetryAfterRounding(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want time.Duration
	}{
		{300 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{1500 * time.Millisecond, 2 * time.Second},
		{2 * time.Second, 2 * time.Second},
	}
	for _, c := range cases {
		a := newAdmission(1, 0, c.wait)
		if got := a.retryAfter(); got != c.want {
			t.Errorf("retryAfter(%v) = %v, want %v", c.wait, got, c.want)
		}
	}
}
