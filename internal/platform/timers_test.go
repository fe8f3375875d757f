package platform

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardTimersIndependent pins that each function shard is its own
// clock: with function b's shard lock held, function a's fixed window
// still closes on time. A clock that scans every shard would wait on b.
func TestShardTimersIndependent(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.ColdStart = 0
	p := newPlatform(t, cfg)
	for _, fn := range []string{"a", "b"} {
		if err := p.Register(fn, echo); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	b := p.lookup("b")
	b.mu.Lock()
	held := true
	defer func() {
		if held {
			b.mu.Unlock()
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "a", nil)
		done <- err
	}()
	bound := 10 * cfg.DispatchInterval
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Invoke a: %v", err)
		}
	case <-time.After(bound):
		b.mu.Unlock()
		held = false
		<-done
		t.Fatalf("a's %v window had not closed after %v with b's shard lock held", cfg.DispatchInterval, bound)
	}
}

// TestIdlePlatformHoldsNoGoroutine pins that the platform runs no
// goroutine of its own: New and Register start none, and Close disarms
// every timer and retires the parked container, so nothing is left
// running after it.
func TestIdlePlatformHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := quickConfig(ModeBatch)
	cfg.ColdStart = 0
	cfg.KeepAlive = 100 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, fn := range []string{"a", "b", "c"} {
		if err := p.Register(fn, echo); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if n := settleGoroutines(t, base, time.Second); n > base {
		t.Errorf("New and Register left %d goroutines running, baseline %d", n, base)
	}
	if _, err := p.Invoke(context.Background(), "a", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(3 * cfg.KeepAlive)
	if live := p.Stats().LiveContainers; live != 0 {
		t.Errorf("LiveContainers = %d three keep-alives after Close, want 0: Close retires the parked container", live)
	}
	if n := settleGoroutines(t, base, time.Second); n > base {
		t.Errorf("%d goroutines after Close, baseline %d", n, base)
	}
}

// countingClient is a cached client whose io.Closer counts its calls.
type countingClient struct{ closed *atomic.Int64 }

func (c countingClient) Close() error {
	c.closed.Add(1)
	return nil
}

// TestCloseRetiresParkedContainers is the regression test for Close
// leaving the warm stacks alone: a container parked before Close, and
// one still running a handler when Close starts, are both retired by the
// time Close returns, and each one's cached client is closed.
func TestCloseRetiresParkedContainers(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.ColdStart = 0
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var closed atomic.Int64
	entered, unblock := make(chan struct{}, 1), make(chan struct{})
	handler := func(block bool) Handler {
		return func(ctx context.Context, inv *Invocation) (any, error) {
			_, _, err := inv.Resources.GetContext(ctx, "store", "", func() (any, int64, error) {
				return countingClient{&closed}, 1, nil
			})
			if block {
				entered <- struct{}{}
				<-unblock
			}
			return nil, err
		}
	}
	if err := p.Register("parked", handler(false)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Register("busy", handler(true)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "parked", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	busy := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "busy", nil)
		busy <- err
	}()
	<-entered
	closeDone := make(chan error, 1)
	go func() { closeDone <- p.Close() }()
	for !p.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-busy; err != nil {
		t.Fatalf("Invoke busy: %v", err)
	}
	if n := closed.Load(); n != 2 {
		t.Errorf("%d cached clients closed when Close returned, want 2 (parked and busy)", n)
	}
	if live := p.Stats().LiveContainers; live != 0 {
		t.Errorf("LiveContainers = %d when Close returned, want 0", live)
	}
}

// slowClient is a cached client whose io.Closer takes delay, announcing
// on started when it begins and on done when it returns.
type slowClient struct {
	delay         time.Duration
	started, done chan struct{}
}

func (c slowClient) Close() error {
	close(c.started)
	time.Sleep(c.delay)
	close(c.done)
	return nil
}

// TestEvictedClientCloseHoldsNoShardLock is the regression test for a slow
// client Close stalling its function: keep-alive expiry used to close the
// retired container's multiplexer under the shard lock, so the function's
// next invoke waited out the user's io.Closer. Expiry now closes the cache
// after releasing the lock.
func TestEvictedClientCloseHoldsNoShardLock(t *testing.T) {
	const closeDelay = 400 * time.Millisecond
	cfg := quickConfig(ModeBatch)
	cfg.KeepAlive = 30 * time.Millisecond
	p := newPlatform(t, cfg)
	client := slowClient{delay: closeDelay, started: make(chan struct{}), done: make(chan struct{})}
	var builds atomic.Int64
	if err := p.Register("fn", func(ctx context.Context, inv *Invocation) (any, error) {
		// Only the first container's client is slow to close.
		_, _, err := inv.Resources.GetContext(ctx, "store", "", func() (any, int64, error) {
			if builds.Add(1) == 1 {
				return client, 1, nil
			}
			return struct{}{}, 1, nil
		})
		return nil, err
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	select {
	case <-client.started:
	case <-time.After(5 * time.Second):
		t.Fatal("the expired container's client was never closed")
	}
	start := time.Now()
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	took := time.Since(start)
	<-client.done
	if bound := closeDelay / 2; took > bound {
		t.Fatalf("the invoke during the evicted client's %v Close took %v, want under %v (window %v, cold start %v)",
			closeDelay, took, bound, cfg.DispatchInterval, cfg.ColdStart)
	}
}
