package fnruntime

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/node"
	"faasbatch/internal/obs/obstest"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// env bundles the common simulation fixtures.
type env struct {
	eng    *sim.Engine
	node   *node.Node
	runner *Runner
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.New(1)
	cfg := node.DefaultConfig()
	cfg.Cores = 8
	cfg.ContainerInitCPUWork = 0 // isolate execution timing from boot
	cfg.KeepAlive = time.Hour    // keep containers out of the way
	n, err := node.New(eng, cfg)
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return &env{eng: eng, node: n, runner: NewRunner(eng)}
}

// acquire obtains a fresh container synchronously-ish for tests.
func (e *env) acquire(t *testing.T, fn string, opts node.AcquireOptions) *node.Container {
	t.Helper()
	var c *node.Container
	e.node.Acquire(fn, opts, node.AcquireFunc(func(r node.AcquireResult) { c = r.Container }))
	e.eng.Run()
	if c == nil {
		t.Fatal("acquire never completed")
	}
	return c
}

func mustSpec(t *testing.T, n int) workload.Spec {
	t.Helper()
	s, err := workload.FibSpec(n)
	if err != nil {
		t.Fatalf("FibSpec(%d): %v", n, err)
	}
	return s
}

func TestExecuteCPUFunction(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "fib30", node.AcquireOptions{})
	spec := mustSpec(t, 30)
	inv := NewInvocation(1, spec, e.eng.Now())
	var done *Invocation
	if err := e.runner.Execute(inv, c, CompleteFunc(func(i *Invocation) { done = i })); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	e.eng.Run()
	if done == nil {
		t.Fatal("onDone never fired")
	}
	// Alone on 8 cores the fib runs at full speed.
	if diff := done.Exec - spec.Work; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("Exec = %v, want ~%v", done.Exec, spec.Work)
	}
	if got := e.runner.Stats().Executed; got != 1 {
		t.Fatalf("Executed = %d, want 1", got)
	}
}

func TestNewInvocationInitialisesRecord(t *testing.T) {
	spec := workload.IOSpec("s3func")
	inv := NewInvocation(7, spec, sim.Time(3*time.Second))
	if inv.ID != 7 || inv.Fn != "s3func" || inv.Arrive != sim.Time(3*time.Second) {
		t.Fatalf("record = %+v", inv.Record)
	}
}

// TestReuseStartsAFreshRequest: a recycled invocation reused for another
// request reads as NewInvocation would have built it, runs its body again
// and keeps the continuation its first Execute bound.
func TestReuseStartsAFreshRequest(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "fib20", node.AcquireOptions{})
	inv := NewInvocation(1, mustSpec(t, 20), e.eng.Now())
	done := 0
	sink := CompleteFunc(func(*Invocation) { done++ })
	if err := e.runner.Execute(inv, c, sink); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	inv.Attempts, inv.Tag, inv.Route.Worker = 2, 3, 4
	inv.Recycle()

	spec := mustSpec(t, 22)
	inv.Reuse(9, spec, e.eng.Now())
	fresh := NewInvocation(9, spec, e.eng.Now())
	if inv.ID != 9 || inv.Record != fresh.Record || inv.Attempts != 0 || inv.Tag != 0 || inv.Route.Worker != 0 || inv.Spec.Work != spec.Work {
		t.Fatalf("reused invocation = %+v, want it as NewInvocation builds it", inv)
	}
	if inv.step == nil {
		t.Fatal("Reuse dropped the bound continuation")
	}
	if err := e.runner.Execute(inv, c, sink); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if done != 2 || inv.Exec <= 0 {
		t.Fatalf("%d completions, Exec = %v; want 2 and the second body timed", done, inv.Exec)
	}
}

// TestRecycledInvocationIsPoisoned: under the race build a recycled
// invocation belongs to its submitter's free list, and completing it
// again, executing it or advancing its body panics with its ID, as does
// reusing an invocation nobody recycled.
func TestRecycledInvocationIsPoisoned(t *testing.T) {
	if !poison {
		t.Skip("the one-owner check rides the race build")
	}
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: recovered %q, want a panic containing %q", name, msg, want)
			}
		}()
		fn()
	}
	e := newEnv(t)
	c := e.acquire(t, "fib20", node.AcquireOptions{})
	inv := NewInvocation(5, mustSpec(t, 20), e.eng.Now())
	sink := CompleteFunc(func(*Invocation) {})
	mustPanic("reuse of a live invocation", "invocation 5, which was never recycled", func() {
		inv.Reuse(6, mustSpec(t, 20), e.eng.Now())
	})
	if err := e.runner.Execute(inv, c, sink); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	inv.Recycle()
	mustPanic("second completion", "invocation 5 completed twice", inv.Recycle)
	mustPanic("execute", "executing recycled invocation 5", func() { _ = e.runner.Execute(inv, c, sink) })
	mustPanic("advance", "advancing recycled invocation 5", inv.advance)

	inv.Reuse(6, mustSpec(t, 20), e.eng.Now())
	if err := e.runner.Execute(inv, c, sink); err != nil {
		t.Fatalf("Execute after Reuse: %v", err)
	}
	e.eng.Run()
}

func TestExecuteValidation(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "f", node.AcquireOptions{})
	if err := e.runner.Execute(nil, c, CompleteFunc(func(*Invocation) {})); err == nil {
		t.Error("nil invocation accepted")
	}
	inv := NewInvocation(1, mustSpec(t, 20), 0)
	if err := e.runner.Execute(inv, nil, CompleteFunc(func(*Invocation) {})); err == nil {
		t.Error("nil container accepted")
	}
}

func TestExecuteIOFunctionWithoutMultiplexer(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "s3func", node.AcquireOptions{})
	spec := workload.IOSpec("s3func")
	inv := NewInvocation(1, spec, e.eng.Now())
	var done *Invocation
	if err := e.runner.Execute(inv, c, CompleteFunc(func(i *Invocation) { done = i })); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	e.eng.Run()
	if done == nil {
		t.Fatal("onDone never fired")
	}
	// Exec = creation (66ms, alone) + IO wait (15ms) + compute (2ms).
	want := 83 * time.Millisecond
	if diff := done.Exec - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
		t.Fatalf("Exec = %v, want ~%v", done.Exec, want)
	}
	st := e.runner.Stats()
	if st.ClientsBuilt != 1 {
		t.Fatalf("ClientsBuilt = %d, want 1", st.ClientsBuilt)
	}
	if st.ClientBytesAllocated != workload.DefaultClientFirstMem {
		t.Fatalf("ClientBytesAllocated = %d", st.ClientBytesAllocated)
	}
	// The transient client was freed when the body returned.
	if c.ClientLive() != 0 {
		t.Fatalf("ClientLive = %d, want 0 after GC", c.ClientLive())
	}
}

func TestConcurrentCreationsContendSuperlinearly(t *testing.T) {
	// Nine concurrent I/O invocations in one container without a
	// multiplexer: creations serialise on the GIL group with a k^alpha
	// penalty, so the last creation completes around 9 * CreationWork(9)
	// ~= 3.2s (Fig. 4), and execution latency spreads out far beyond the
	// uncontended 83ms.
	e := newEnv(t)
	c := e.acquire(t, "s3func", node.AcquireOptions{})
	spec := workload.IOSpec("s3func")
	var lats []time.Duration
	for i := 0; i < 9; i++ {
		inv := NewInvocation(int64(i), spec, e.eng.Now())
		if err := e.runner.Execute(inv, c, CompleteFunc(func(iv *Invocation) { lats = append(lats, iv.Exec) })); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	e.eng.Run()
	if len(lats) != 9 {
		t.Fatalf("completed %d, want 9", len(lats))
	}
	var maxLat time.Duration
	for _, l := range lats {
		if l > maxLat {
			maxLat = l
		}
	}
	if maxLat < 2500*time.Millisecond || maxLat > 4200*time.Millisecond {
		t.Fatalf("max exec latency = %v, want ~3.2s (Fig. 4 contention)", maxLat)
	}
	if got := e.runner.Stats().ClientsBuilt; got != 9 {
		t.Fatalf("ClientsBuilt = %d, want 9 (no multiplexer)", got)
	}
}

func TestMultiplexerCollapsesCreationCost(t *testing.T) {
	// The same nine concurrent invocations WITH a multiplexer: one build,
	// eight coalesced waits. Every invocation finishes within the
	// 10-100ms band (Fig. 12c).
	e := newEnv(t)
	c := e.acquire(t, "s3func", node.AcquireOptions{Multiplex: true})
	spec := workload.IOSpec("s3func")
	var lats []time.Duration
	for i := 0; i < 9; i++ {
		inv := NewInvocation(int64(i), spec, e.eng.Now())
		if err := e.runner.Execute(inv, c, CompleteFunc(func(iv *Invocation) { lats = append(lats, iv.Exec) })); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	e.eng.Run()
	st := e.runner.Stats()
	if st.ClientsBuilt != 1 {
		t.Fatalf("ClientsBuilt = %d, want 1", st.ClientsBuilt)
	}
	if st.CacheCoalesced != 8 {
		t.Fatalf("CacheCoalesced = %d, want 8", st.CacheCoalesced)
	}
	for _, l := range lats {
		if l < 10*time.Millisecond || l > 100*time.Millisecond {
			t.Fatalf("exec latency %v outside the paper's 10-100ms band", l)
		}
	}
	// Only one instance's memory is live, held by the container.
	if c.ClientLive() != 1 {
		t.Fatalf("ClientLive = %d, want 1 cached instance", c.ClientLive())
	}
}

func TestMultiplexerHitOnLaterWindow(t *testing.T) {
	// A second wave arriving after the first build completed must hit.
	e := newEnv(t)
	c := e.acquire(t, "s3func", node.AcquireOptions{Multiplex: true})
	spec := workload.IOSpec("s3func")
	first := NewInvocation(1, spec, e.eng.Now())
	if err := e.runner.Execute(first, c, CompleteFunc(func(*Invocation) {})); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	e.eng.Run()
	var second *Invocation
	inv := NewInvocation(2, spec, e.eng.Now())
	if err := e.runner.Execute(inv, c, CompleteFunc(func(i *Invocation) { second = i })); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	e.eng.Run()
	st := e.runner.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	// Hit path: IO wait + compute only = 17ms.
	want := 17 * time.Millisecond
	if diff := second.Exec - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
		t.Fatalf("hit Exec = %v, want ~%v", second.Exec, want)
	}
}

func TestExecuteOnEvictedContainerFails(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "f", node.AcquireOptions{})
	c.ReturnThread()
	e.eng.Run() // keep-alive expiry evicts the idle container
	inv := NewInvocation(1, mustSpec(t, 20), e.eng.Now())
	if err := e.runner.Execute(inv, c, CompleteFunc(func(*Invocation) {})); err == nil {
		t.Fatal("Execute on evicted container succeeded, want error")
	}
}

// TestRejectsAreSentinels: a scheduler tells a reject by errors.Is, and
// rejecting an invocation on an evicted container — every retry of a
// crashed batch — costs the allocator nothing.
func TestRejectsAreSentinels(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "f", node.AcquireOptions{})
	e.runner.SetChaos(chaos.MustNew(chaos.Config{Seed: 1, Rates: map[chaos.Kind]float64{chaos.ContainerCrash: 0.999}}))
	inv := NewInvocation(1, mustSpec(t, 20), e.eng.Now())
	sink := CompleteFunc(func(*Invocation) {})
	if err := e.runner.Execute(inv, c, sink); !errors.Is(err, ErrContainerCrashed) {
		t.Fatalf("Execute as the container crashes = %v, want ErrContainerCrashed", err)
	}
	if err := e.runner.Execute(inv, c, sink); !errors.Is(err, ErrContainerEvicted) {
		t.Fatalf("Execute on the crashed container = %v, want ErrContainerEvicted", err)
	}
	if got := e.runner.Stats().CrashRejects; got != 2 {
		t.Fatalf("CrashRejects = %d, want 2", got)
	}
	if obstest.RaceEnabled {
		return // the race runtime allocates on its own behalf
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = e.runner.Execute(inv, c, sink) }); allocs != 0 {
		t.Fatalf("an evicted-container reject allocates %.1f times, want 0", allocs)
	}
}

func TestThreadAccountingAcrossBatch(t *testing.T) {
	e := newEnv(t)
	c := e.acquire(t, "fib25", node.AcquireOptions{})
	spec := mustSpec(t, 25)
	const n = 5
	done := 0
	for i := 0; i < n; i++ {
		inv := NewInvocation(int64(i), spec, e.eng.Now())
		if err := e.runner.Execute(inv, c, CompleteFunc(func(*Invocation) { done++ })); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	// n bodies + 1 acquisition reservation.
	if c.Active() != n+1 {
		t.Fatalf("Active = %d, want %d", c.Active(), n+1)
	}
	e.eng.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if c.Active() != 1 || c.State() != node.Busy {
		t.Fatalf("after batch: active=%d state=%v, want reservation only", c.Active(), c.State())
	}
	c.ReturnThread() // release reservation -> container parks idle
	if c.State() != node.Idle {
		t.Fatalf("state = %v, want idle", c.State())
	}
}

func TestSharingVsMonopolyEquivalence(t *testing.T) {
	// The Fig. 1 motivation: N concurrent fib(30) invocations inside ONE
	// container finish in about the same time as N invocations across N
	// containers, when N does not exceed the cores.
	runSharing := func(n int) time.Duration {
		e := newEnv(t)
		c := e.acquire(t, "fib30", node.AcquireOptions{})
		spec := mustSpec(t, 30)
		start := e.eng.Now()
		var last sim.Time
		for i := 0; i < n; i++ {
			inv := NewInvocation(int64(i), spec, start)
			if err := e.runner.Execute(inv, c, CompleteFunc(func(*Invocation) { last = e.eng.Now() })); err != nil {
				t.Fatalf("Execute: %v", err)
			}
		}
		e.eng.Run()
		return last.Sub(start)
	}
	runMonopoly := func(n int) time.Duration {
		e := newEnv(t)
		spec := mustSpec(t, 30)
		var containers []*node.Container
		for i := 0; i < n; i++ {
			containers = append(containers, e.acquire(t, "f", node.AcquireOptions{}))
		}
		start := e.eng.Now()
		var last sim.Time
		for i := 0; i < n; i++ {
			inv := NewInvocation(int64(i), spec, start)
			if err := e.runner.Execute(inv, containers[i], CompleteFunc(func(*Invocation) { last = e.eng.Now() })); err != nil {
				t.Fatalf("Execute: %v", err)
			}
		}
		e.eng.Run()
		return last.Sub(start)
	}
	for _, n := range []int{4, 8} {
		s, m := runSharing(n), runMonopoly(n)
		ratio := float64(s) / float64(m)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("n=%d: sharing %v vs monopoly %v (ratio %.2f), want ~1.0", n, s, m, ratio)
		}
	}
}

// Property: for any random mix of CPU and I/O invocations spread over
// time, every completion has a non-negative, additive latency
// decomposition and an execution latency no smaller than the body's CPU
// work (tasks never run faster than one core).
func TestPropertyExecutionInvariants(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		eng := sim.New(seed)
		cfg := node.DefaultConfig()
		cfg.Cores = 4
		cfg.ContainerInitCPUWork = 0
		cfg.KeepAlive = time.Hour
		n, err := node.New(eng, cfg)
		if err != nil {
			return false
		}
		runner := NewRunner(eng)
		ok := true
		completed := 0
		var c *node.Container
		n.Acquire("mix", node.AcquireOptions{Multiplex: true}, node.AcquireFunc(func(r node.AcquireResult) { c = r.Container }))
		eng.Run()
		if c == nil {
			return false
		}
		for i, r := range raw {
			i, r := i, r
			var spec workload.Spec
			if r%3 == 0 {
				spec = workload.IOSpec("mix")
			} else {
				s, err := workload.FibSpec(20 + int(r)%16)
				if err != nil {
					return false
				}
				s.Name = "mix"
				spec = s
			}
			at := time.Duration(r%500) * time.Millisecond
			eng.Schedule(at, func() {
				inv := NewInvocation(int64(i), spec, eng.Now())
				if err := runner.Execute(inv, c, CompleteFunc(func(done *Invocation) {
					completed++
					rec := done.Record
					if rec.Sched < 0 || rec.ColdStart < 0 || rec.Queue < 0 || rec.Exec <= 0 {
						ok = false
					}
					if rec.Total() != rec.Sched+rec.ColdStart+rec.Queue+rec.Exec {
						ok = false
					}
					if done.Spec.Client == nil && rec.Exec < done.Spec.Work {
						ok = false // CPU body cannot beat one core
					}
				})); err != nil {
					ok = false
				}
			})
		}
		eng.Run()
		return ok && completed == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
