package node

import (
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/sim"
)

// testConfig returns a small deterministic node config for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ColdStartLatency = 400 * time.Millisecond
	cfg.CreateCPUWork = 100 * time.Millisecond
	cfg.ContainerInitCPUWork = 0
	cfg.CreateConcurrency = 2
	cfg.KeepAlive = 10 * time.Second
	cfg.ContainerMem = 40 << 20
	cfg.BaseMemBytes = 0
	return cfg
}

func newTestNode(t *testing.T, eng *sim.Engine, cfg Config) *Node {
	t.Helper()
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.CreateConcurrency = 0 },
		func(c *Config) { c.ColdStartLatency = -1 },
		func(c *Config) { c.CreateCPUWork = -1 },
		func(c *Config) { c.KeepAlive = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(eng, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Nil discipline defaults to FairShare.
	cfg := testConfig()
	cfg.Discipline = nil
	n := newTestNode(t, eng, cfg)
	if n.Config().Discipline.Name() != "fair-share" {
		t.Errorf("default discipline = %q", n.Config().Discipline.Name())
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Starting: "starting", Idle: "idle", Busy: "busy", Evicted: "evicted"}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
	if State(9).String() != "state(9)" {
		t.Error("unknown state string wrong")
	}
}

func TestColdAcquire(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var res AcquireResult
	gotIt := false
	n.Acquire("fib30", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
		res = r
		gotIt = true
	}))
	eng.Run()
	if !gotIt {
		t.Fatal("Acquire callback never fired")
	}
	if !res.Cold {
		t.Fatal("first acquire should be cold")
	}
	// Boot = 100ms CPU work (alone on 4 cores -> full speed) + 400ms
	// latency = 500ms.
	if res.BootTime < 499*time.Millisecond || res.BootTime > 501*time.Millisecond {
		t.Fatalf("BootTime = %v, want ~500ms", res.BootTime)
	}
	if res.QueueWait != 0 {
		t.Fatalf("QueueWait = %v, want 0 (free engine slot)", res.QueueWait)
	}
	c := res.Container
	if c.State() != Busy || c.Active() != 1 {
		t.Fatalf("container state = %v active = %d, want busy/1", c.State(), c.Active())
	}
	if n.TotalCreated() != 1 || n.LiveContainers() != 1 || n.ColdStarts() != 1 {
		t.Fatalf("counters: created=%d live=%d cold=%d", n.TotalCreated(), n.LiveContainers(), n.ColdStarts())
	}
	if n.MemUsed() != 40<<20 {
		t.Fatalf("MemUsed = %d, want container base", n.MemUsed())
	}
	// Released, the container parks warm under the function it serves.
	c.ReturnThread()
	if n.WarmCount("fib30") != 1 {
		t.Fatalf("WarmCount(fib30) = %d after release, want 1", n.WarmCount("fib30"))
	}
}

func TestWarmAcquireReusesContainer(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var first *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
		first = r.Container
		r.Container.ReturnThread()
	}))
	eng.RunUntil(sim.Time(2 * time.Second)) // boot done, keep-alive not expired
	if n.WarmCount("f") != 1 {
		t.Fatalf("WarmCount = %d, want 1", n.WarmCount("f"))
	}
	var second AcquireResult
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { second = r }))
	if second.Container == nil {
		t.Fatal("warm acquire should complete synchronously")
	}
	if second.Cold || second.BootTime != 0 || second.QueueWait != 0 {
		t.Fatalf("warm acquire = %+v, want warm/zero latencies", second)
	}
	if second.Container != first {
		t.Fatal("warm acquire returned a different container")
	}
	if n.TotalCreated() != 1 || n.WarmStarts() != 1 {
		t.Fatalf("created=%d warm=%d", n.TotalCreated(), n.WarmStarts())
	}
}

func TestWarmPoolIsPerFunction(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	n.Acquire("fA", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { r.Container.ReturnThread() }))
	eng.Run()
	var res AcquireResult
	n.Acquire("fB", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { res = r }))
	eng.Run()
	if !res.Cold {
		t.Fatal("different function must not reuse another function's container")
	}
	if n.TotalCreated() != 2 {
		t.Fatalf("TotalCreated = %d, want 2", n.TotalCreated())
	}
}

func TestCreationPipelineQueues(t *testing.T) {
	// CreateConcurrency=2: five concurrent acquires must serialise in
	// waves on the engine's CPU-work stage. The CPU work (100ms each, two
	// at a time on 4 cores, full speed) gates the pipeline; the 400ms boot
	// latency overlaps.
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var waits []time.Duration
	for i := 0; i < 5; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
			waits = append(waits, r.QueueWait)
		}))
	}
	if len(waits) != 0 {
		t.Fatalf("%d cold acquires completed before the engine ran, want 0", len(waits))
	}
	eng.Run()
	if len(waits) != 5 {
		t.Fatalf("completed %d acquires, want 5", len(waits))
	}
	// First two: no wait. Next two: ~100ms. Last: ~200ms.
	approx := func(got, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 5*time.Millisecond
	}
	if !approx(waits[0], 0) || !approx(waits[1], 0) {
		t.Errorf("first wave waits = %v %v, want ~0", waits[0], waits[1])
	}
	if !approx(waits[2], 100*time.Millisecond) || !approx(waits[3], 100*time.Millisecond) {
		t.Errorf("second wave waits = %v %v, want ~100ms", waits[2], waits[3])
	}
	if !approx(waits[4], 200*time.Millisecond) {
		t.Errorf("third wave wait = %v, want ~200ms", waits[4])
	}
}

func TestCreationBurnsNodeCPU(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(AcquireResult) {}))
	eng.Run()
	// The engine's creation work must appear in the CPU busy integral.
	if got := n.Pool().BusyCoreSeconds(); got < 0.099 || got > 0.101 {
		t.Fatalf("BusyCoreSeconds = %v, want ~0.1 (creation work)", got)
	}
}

func TestKeepAliveEviction(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
		c = r.Container
		r.Container.ReturnThread()
	}))
	eng.Run()
	if c.State() != Evicted {
		t.Fatalf("state after keep-alive = %v, want evicted", c.State())
	}
	if n.LiveContainers() != 0 || n.WarmCount("f") != 0 {
		t.Fatalf("live=%d warm=%d after eviction", n.LiveContainers(), n.WarmCount("f"))
	}
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after eviction, want 0", n.MemUsed())
	}
	if n.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", n.Evictions())
	}
}

func TestReacquireCancelsEviction(t *testing.T) {
	cfg := testConfig()
	eng := sim.New(1)
	n := newTestNode(t, eng, cfg)
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
		c = r.Container
		r.Container.ReturnThread()
	}))
	// Boot finishes at 500ms; keep-alive timer armed for 10.5s. Reacquire
	// at 5s and hold past the original timer.
	eng.Schedule(5*time.Second, func() {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {}))
	})
	eng.RunUntil(sim.Time(12 * time.Second))
	if c.State() != Busy {
		t.Fatalf("state = %v, want busy (eviction must be cancelled)", c.State())
	}
	if n.Evictions() != 0 {
		t.Fatalf("Evictions = %d, want 0", n.Evictions())
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d: a warm reuse takes its keep-alive out of the heap, it does not leave it to fire as a no-op", eng.Pending())
	}
}

func TestMultiplexOptionEquipsCache(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var withCache, without *Container
	n.Acquire("a", AcquireOptions{Multiplex: true}, AcquireFunc(func(r AcquireResult) { withCache = r.Container }))
	n.Acquire("b", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { without = r.Container }))
	eng.Run()
	if withCache.Cache() == nil {
		t.Error("multiplexed container has no cache")
	}
	if without.Cache() != nil {
		t.Error("baseline container unexpectedly has a cache")
	}
}

func TestCPULimitApplied(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{CPULimit: 2}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.Run()
	// On the 4-core node, four 100ms tasks take 200ms under the 2-core cap,
	// and two take 200ms on the 1-core runtime-lock group.
	start := eng.Now()
	var capped, gil sim.Time
	for i := 0; i < 4; i++ {
		c.Group().Submit(100*time.Millisecond, func() { capped = eng.Now() })
	}
	for i := 0; i < 2; i++ {
		c.GILGroup().Submit(100*time.Millisecond, func() { gil = eng.Now() })
	}
	eng.Run()
	want := start.Add(200 * time.Millisecond)
	if capped != want || gil != want {
		t.Fatalf("capped group done at %v, gil group at %v; want both at %v", capped, gil, want)
	}
}

func TestClientMemAccounting(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.Run()
	base := n.MemUsed()
	if ord := c.AllocClientMem(9 << 20); ord != 1 {
		t.Fatalf("first client ordinal = %d, want 1", ord)
	}
	if ord := c.AllocClientMem(6 << 20); ord != 2 {
		t.Fatalf("second client ordinal = %d, want 2", ord)
	}
	if got := n.MemUsed() - base; got != 15<<20 {
		t.Fatalf("client mem delta = %d, want 15 MiB", got)
	}
	if c.ClientLive() != 2 {
		t.Fatalf("ClientLive = %d, want 2", c.ClientLive())
	}
	if n.ClientBytesAllocated() != 15<<20 {
		t.Fatalf("ClientBytesAllocated = %d", n.ClientBytesAllocated())
	}
	c.FreeClientMem(6 << 20)
	if got := n.MemUsed() - base; got != 9<<20 {
		t.Fatalf("after free delta = %d, want 9 MiB", got)
	}
	// Teardown releases the rest.
	c.ReturnThread()
	eng.Run()
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed after teardown = %d, want 0", n.MemUsed())
	}
}

func TestFreeClientMemClampsToLive(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.Run()
	c.AllocClientMem(1 << 20)
	c.FreeClientMem(100 << 20) // over-free must clamp
	if n.MemUsed() != n.cfg.ContainerMem {
		t.Fatalf("MemUsed = %d, want container base only", n.MemUsed())
	}
}

// evictIdle tears down every idle container at once, as keep-alive expiry
// would one by one, and reports how many went.
func evictIdle(n *Node) int {
	evicted := 0
	for fn, list := range n.warm {
		for len(list) > 0 {
			n.teardown(list[0]) // takes it out of the warm pool
			list = n.warm[fn]
			evicted++
			n.evictions++
		}
	}
	return evicted
}

func TestEvictIdle(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	for i := 0; i < 3; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { r.Container.ReturnThread() }))
	}
	eng.RunUntil(sim.Time(2 * time.Second)) // boots done, keep-alive not yet
	// Three creations for the same fn because none was warm at submit.
	if got := evictIdle(n); got != 3 {
		t.Fatalf("evictIdle = %d, want 3", got)
	}
	if n.MemUsed() != 0 || n.LiveContainers() != 0 {
		t.Fatalf("after evictIdle: mem=%d live=%d", n.MemUsed(), n.LiveContainers())
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d: teardown stops the keep-alive timers of the containers it evicts", eng.Pending())
	}
}

func TestReturnThreadOnIdleContainerIsNoop(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
		c = r.Container
		r.Container.ReturnThread()
	}))
	eng.RunUntil(sim.Time(time.Second))
	c.ReturnThread() // extra return must not corrupt state
	if c.Active() != 0 || c.State() != Idle {
		t.Fatalf("state = %v active = %d", c.State(), c.Active())
	}
}

func TestMemPeakTracksHighWater(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	done := 0
	for i := 0; i < 4; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
			done++
			r.Container.ReturnThread()
		}))
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d, want 4", done)
	}
	if n.MemPeak() != 4*(40<<20) {
		t.Fatalf("MemPeak = %d, want 4 containers", n.MemPeak())
	}
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after evictions", n.MemUsed())
	}
}

func TestMLFQDisciplineAccepted(t *testing.T) {
	eng := sim.New(1)
	cfg := testConfig()
	cfg.Discipline = cpusched.NewMLFQ()
	n := newTestNode(t, eng, cfg)
	fired := false
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(AcquireResult) { fired = true }))
	eng.Run()
	if !fired {
		t.Fatal("acquire under MLFQ never completed")
	}
}

// Property: for any sequence of acquire/release cycles, the ledger returns
// to zero once everything is evicted, and every callback fires exactly
// once.
func TestPropertyLedgerBalance(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		eng := sim.New(seed)
		cfg := testConfig()
		cfg.KeepAlive = 5 * time.Second
		n, err := New(eng, cfg)
		if err != nil {
			return false
		}
		fired := 0
		for i, op := range opsRaw {
			fn := string(rune('a' + op%3))
			at := time.Duration(i*37) * time.Millisecond
			eng.Schedule(at, func() {
				n.Acquire(fn, AcquireOptions{Multiplex: op%2 == 0}, AcquireFunc(func(r AcquireResult) {
					fired++
					if op%4 == 0 {
						r.Container.AllocClientMem(int64(op) << 16)
					}
					r.Container.ReturnThread()
				}))
			})
		}
		eng.Run()
		return fired == len(opsRaw) && n.MemUsed() == 0 && n.LiveContainers() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTerminateBypassesWarmPool(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.Run()
	c.Terminate()
	if c.State() != Evicted {
		t.Fatalf("state = %v, want evicted", c.State())
	}
	if n.LiveContainers() != 0 || n.WarmCount("f") != 0 {
		t.Fatalf("live=%d warm=%d after terminate", n.LiveContainers(), n.WarmCount("f"))
	}
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after terminate", n.MemUsed())
	}
	// Idempotent.
	c.Terminate()
	if n.LiveContainers() != 0 {
		t.Fatal("double terminate corrupted live count")
	}
}

func TestTerminateFreesClientMemory(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{Multiplex: true}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.Run()
	c.AllocClientMem(9 << 20)
	c.Terminate()
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after terminate with client memory", n.MemUsed())
	}
}

func TestBusyCoreSecondsIncludesIdleCharge(t *testing.T) {
	eng := sim.New(1)
	cfg := testConfig()
	cfg.ContainerIdleCPU = 0.5
	n := newTestNode(t, eng, cfg)
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {}))
	eng.RunUntil(sim.Time(10 * time.Second))
	// Boot finished at ~0.5s; the container lived since its creation at
	// t=0 (live includes the boot), so by t=10s the idle charge is about
	// 10s * 0.5 cores = 5 core-seconds plus the 0.1 core-seconds of
	// creation work.
	got := n.BusyCoreSeconds()
	if got < 4.9 || got > 5.3 {
		t.Fatalf("BusyCoreSeconds = %v, want ~5.1", got)
	}
}

func TestBaseMemIncludedInUsage(t *testing.T) {
	eng := sim.New(1)
	cfg := testConfig()
	cfg.BaseMemBytes = 100 << 20
	n := newTestNode(t, eng, cfg)
	if n.MemUsed() != 100<<20 {
		t.Fatalf("MemUsed = %d, want platform base", n.MemUsed())
	}
	if n.MemPeak() != 100<<20 {
		t.Fatalf("MemPeak = %d, want platform base", n.MemPeak())
	}
}

func TestBootFailuresRetryUntilSuccess(t *testing.T) {
	eng := sim.New(7)
	cfg := testConfig()
	cfg.Chaos = chaos.MustNew(chaos.Config{Seed: 7, Rates: map[chaos.Kind]float64{chaos.BootFailure: 0.5}})
	n := newTestNode(t, eng, cfg)
	const acquires = 20
	done := 0
	var maxBoot time.Duration
	for i := 0; i < acquires; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) {
			done++
			if !r.Cold {
				return
			}
			total := r.QueueWait + r.BootTime
			if total > maxBoot {
				maxBoot = total
			}
			r.Container.ReturnThread()
		}))
	}
	eng.RunUntil(sim.Time(5 * time.Minute))
	if done != acquires {
		t.Fatalf("completed %d/%d acquires despite retries", done, acquires)
	}
	if n.BootFailures() == 0 {
		t.Fatal("no boot failures at rate 0.5")
	}
	// Failed boots tear down cleanly: the ledger balances after eviction.
	eng.Run()
	if n.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after failures and evictions, want 0", n.MemUsed())
	}
	// Retried acquisitions report longer waits than a clean boot.
	if maxBoot <= 500*time.Millisecond {
		t.Fatalf("max boot wait %v, want > one clean boot (retries add delay)", maxBoot)
	}
}

func TestZeroFailureRateNeverFails(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	for i := 0; i < 10; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { r.Container.ReturnThread() }))
	}
	eng.Run()
	if n.BootFailures() != 0 {
		t.Fatalf("BootFailures = %d at rate 0", n.BootFailures())
	}
}
