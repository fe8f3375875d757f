package policy

import (
	"testing"
	"time"

	"faasbatch/internal/cpusched"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// testEnv builds an Env over a small node.
func testEnv(t *testing.T, disc cpusched.Discipline) Env {
	t.Helper()
	eng := sim.New(1)
	cfg := node.DefaultConfig()
	cfg.Cores = 8
	cfg.Discipline = disc
	cfg.CreateConcurrency = 2
	cfg.CreateCPUWork = 100 * time.Millisecond
	cfg.ContainerInitCPUWork = 0
	cfg.ColdStartLatency = 400 * time.Millisecond
	cfg.KeepAlive = time.Hour
	n, err := node.New(eng, cfg)
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return Env{Eng: eng, Node: n, Runner: fnruntime.NewRunner(eng)}
}

func fibSpec(t *testing.T, n int) workload.Spec {
	t.Helper()
	s, err := workload.FibSpec(n)
	if err != nil {
		t.Fatalf("FibSpec(%d): %v", n, err)
	}
	return s
}

// runAll submits invocations at their arrival offsets and steps the engine
// until all complete. Returns the final records.
func runAll(t *testing.T, env Env, s Scheduler, specs []workload.Spec, offsets []time.Duration) []fnruntime.Record {
	t.Helper()
	if len(specs) != len(offsets) {
		t.Fatal("specs/offsets length mismatch")
	}
	var recs []fnruntime.Record
	for i := range specs {
		i := i
		env.Eng.Schedule(offsets[i], func() {
			inv := fnruntime.NewInvocation(int64(i), specs[i], env.Eng.Now())
			s.Submit(inv, func(done *fnruntime.Invocation) {
				recs = append(recs, done.Record)
			})
		})
	}
	for len(recs) < len(specs) {
		if !env.Eng.Step() {
			t.Fatalf("engine drained with %d/%d invocations complete", len(recs), len(specs))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return recs
}

func TestEnvValidation(t *testing.T) {
	if _, err := NewVanilla(Env{}); err == nil {
		t.Error("empty env accepted by NewVanilla")
	}
	if _, err := NewSFS(Env{}, DefaultSFSConfig()); err == nil {
		t.Error("empty env accepted by NewSFS")
	}
	if _, err := NewKraken(Env{}, DefaultKrakenConfig()); err == nil {
		t.Error("empty env accepted by NewKraken")
	}
}

func TestVanillaSingleInvocation(t *testing.T) {
	env := testEnv(t, nil)
	v, err := NewVanilla(env)
	if err != nil {
		t.Fatalf("NewVanilla: %v", err)
	}
	if v.Name() != "vanilla" {
		t.Fatalf("Name = %q", v.Name())
	}
	spec := fibSpec(t, 30)
	recs := runAll(t, env, v, []workload.Spec{spec}, []time.Duration{0})
	r := recs[0]
	if r.Sched != 0 {
		t.Errorf("Sched = %v, want 0 (free engine slot)", r.Sched)
	}
	// Boot: 100ms create work + 400ms latency.
	if r.ColdStart < 499*time.Millisecond || r.ColdStart > 501*time.Millisecond {
		t.Errorf("ColdStart = %v, want ~500ms", r.ColdStart)
	}
	if r.Queue != 0 {
		t.Errorf("Queue = %v, want 0 (vanilla never queues)", r.Queue)
	}
	if diff := r.Exec - spec.Work; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Exec = %v, want ~%v", r.Exec, spec.Work)
	}
}

func TestVanillaWarmReuseAcrossSequentialInvocations(t *testing.T) {
	env := testEnv(t, nil)
	v, err := NewVanilla(env)
	if err != nil {
		t.Fatalf("NewVanilla: %v", err)
	}
	spec := fibSpec(t, 25)
	specs := []workload.Spec{spec, spec}
	// Second arrives well after the first completed.
	recs := runAll(t, env, v, specs, []time.Duration{0, 3 * time.Second})
	if recs[1].ColdStart != 0 {
		t.Errorf("second invocation ColdStart = %v, want 0 (warm reuse)", recs[1].ColdStart)
	}
	if env.Node.TotalCreated() != 1 {
		t.Errorf("TotalCreated = %d, want 1", env.Node.TotalCreated())
	}
}

func TestVanillaSpawnsContainerPerConcurrentInvocation(t *testing.T) {
	env := testEnv(t, nil)
	v, err := NewVanilla(env)
	if err != nil {
		t.Fatalf("NewVanilla: %v", err)
	}
	spec := fibSpec(t, 30)
	specs := make([]workload.Spec, 10)
	offsets := make([]time.Duration, 10)
	for i := range specs {
		specs[i] = spec
	}
	recs := runAll(t, env, v, specs, offsets)
	if env.Node.TotalCreated() != 10 {
		t.Errorf("TotalCreated = %d, want 10 (one per concurrent invocation)", env.Node.TotalCreated())
	}
	// With CreateConcurrency=2 the engine queue inflates scheduling
	// latency for later invocations.
	var maxSched time.Duration
	for _, r := range recs {
		maxSched = max(maxSched, r.Sched)
	}
	if maxSched < 200*time.Millisecond {
		t.Errorf("max Sched = %v, want creation-queue inflation", maxSched)
	}
}

func TestSFSUsesSchedulerOverhead(t *testing.T) {
	env := testEnv(t, cpusched.NewMLFQ())
	s, err := NewSFS(env, SFSConfig{SchedOverhead: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSFS: %v", err)
	}
	if s.Name() != "sfs" {
		t.Fatalf("Name = %q", s.Name())
	}
	spec := fibSpec(t, 25)
	recs := runAll(t, env, s, []workload.Spec{spec}, []time.Duration{0})
	// The 5ms overhead delays the acquire, so it lands in Sched.
	if recs[0].Sched < 4*time.Millisecond {
		t.Errorf("Sched = %v, want >= ~5ms scheduler overhead", recs[0].Sched)
	}
}

func TestSFSZeroOverheadBehavesLikeVanilla(t *testing.T) {
	env := testEnv(t, cpusched.NewMLFQ())
	s, err := NewSFS(env, SFSConfig{})
	if err != nil {
		t.Fatalf("NewSFS: %v", err)
	}
	spec := fibSpec(t, 25)
	recs := runAll(t, env, s, []workload.Spec{spec}, []time.Duration{0})
	if recs[0].Sched != 0 {
		t.Errorf("Sched = %v, want 0", recs[0].Sched)
	}
}

func TestSFSConfigValidation(t *testing.T) {
	env := testEnv(t, cpusched.NewMLFQ())
	if _, err := NewSFS(env, SFSConfig{SchedOverhead: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestSFSShortFunctionsBeatLongUnderLoad(t *testing.T) {
	// SFS's point: under a mix of long and short functions on a loaded
	// node, short functions finish close to their solo time while long
	// ones pay. Compare the short function's exec latency under MLFQ vs
	// FairShare with an identical workload.
	shortExec := func(disc cpusched.Discipline) time.Duration {
		env := testEnv(t, disc)
		s, err := NewSFS(env, SFSConfig{})
		if err != nil {
			t.Fatalf("NewSFS: %v", err)
		}
		// Node has 8 cores; 12 long functions saturate it, one short
		// function arrives after they are running.
		long := fibSpec(t, 33) // ~1.3s
		short := fibSpec(t, 22)
		specs := make([]workload.Spec, 0, 13)
		offsets := make([]time.Duration, 0, 13)
		for i := 0; i < 12; i++ {
			specs = append(specs, long)
			offsets = append(offsets, 0)
		}
		specs = append(specs, short)
		offsets = append(offsets, 1200*time.Millisecond) // containers warm-ish, node busy
		recs := runAll(t, env, s, specs, offsets)
		for _, r := range recs {
			if r.Fn == short.Name {
				return r.Exec
			}
		}
		t.Fatal("short record not found")
		return 0
	}
	mlfq := shortExec(cpusched.NewMLFQ())
	fair := shortExec(cpusched.FairShare{})
	if mlfq >= fair {
		t.Errorf("short exec under MLFQ = %v not better than FairShare = %v", mlfq, fair)
	}
}

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Error("alpha 1.5 accepted")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatalf("NewEWMA: %v", err)
	}
	if e.Primed() || e.Value() != 0 {
		t.Fatal("fresh EWMA should be unprimed/zero")
	}
	e.Observe(10)
	if !e.Primed() || e.Value() != 10 {
		t.Fatalf("after first observation: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Reset()
	if e.Primed() || e.Value() != 0 {
		t.Fatal("reset EWMA should be unprimed/zero")
	}
	e.Observe(7)
	if !e.Primed() || e.Value() != 7 {
		t.Fatalf("post-reset observation should re-prime directly, got %v", e.Value())
	}
}

func TestKrakenConfigValidation(t *testing.T) {
	env := testEnv(t, nil)
	bad := []func(*KrakenConfig){
		func(c *KrakenConfig) { c.DefaultSLO = 0 },
		func(c *KrakenConfig) { c.Window = 0 },
		func(c *KrakenConfig) { c.InitialExecEstimate = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultKrakenConfig()
		mutate(&cfg)
		if _, err := NewKraken(env, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestKrakenBatchesSequentially(t *testing.T) {
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.DefaultSLO = 10 * time.Second // huge slack -> one container
	cfg.InitialExecEstimate = 300 * time.Millisecond
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	if k.Name() != "kraken" {
		t.Fatalf("Name = %q", k.Name())
	}
	spec := fibSpec(t, 30) // ~309ms
	specs := make([]workload.Spec, 5)
	offsets := make([]time.Duration, 5)
	for i := range specs {
		specs[i] = spec
	}
	recs := runAll(t, env, k, specs, offsets)
	if env.Node.TotalCreated() != 1 {
		t.Fatalf("TotalCreated = %d, want 1 (all batched)", env.Node.TotalCreated())
	}
	// Sequential execution: queuing latency must grow across the batch.
	queued := 0
	var maxQueue time.Duration
	for _, r := range recs {
		if r.Queue > 0 {
			queued++
		}
		if r.Queue > maxQueue {
			maxQueue = r.Queue
		}
	}
	if queued < 3 {
		t.Errorf("only %d records show queuing, want most of the batch", queued)
	}
	// The last of five sequential ~309ms runs waits ~4*309ms.
	if maxQueue < 900*time.Millisecond {
		t.Errorf("max Queue = %v, want >= ~1.2s of sequential wait", maxQueue)
	}
}

func TestKrakenProvisionsPerSLO(t *testing.T) {
	// Tight SLO: batch capacity 1 -> one container per concurrent
	// invocation, like Vanilla.
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.DefaultSLO = 350 * time.Millisecond
	cfg.InitialExecEstimate = 300 * time.Millisecond
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	spec := fibSpec(t, 30)
	specs := make([]workload.Spec, 4)
	offsets := make([]time.Duration, 4)
	for i := range specs {
		specs[i] = spec
	}
	runAll(t, env, k, specs, offsets)
	if got := env.Node.TotalCreated(); got != 4 {
		t.Fatalf("TotalCreated = %d, want 4 under tight SLO", got)
	}
}

func TestKrakenFewerContainersThanVanillaOnBurst(t *testing.T) {
	burst := func(mk func(Env) Scheduler) int {
		env := testEnv(t, nil)
		s := mk(env)
		spec := fibSpec(t, 28) // ~118ms
		specs := make([]workload.Spec, 20)
		offsets := make([]time.Duration, 20)
		for i := range specs {
			specs[i] = spec
			offsets[i] = time.Duration(i) * 5 * time.Millisecond
		}
		runAll(t, env, s, specs, offsets)
		return env.Node.TotalCreated()
	}
	vanillaContainers := burst(func(env Env) Scheduler {
		v, err := NewVanilla(env)
		if err != nil {
			t.Fatalf("NewVanilla: %v", err)
		}
		return v
	})
	krakenContainers := burst(func(env Env) Scheduler {
		cfg := DefaultKrakenConfig()
		cfg.DefaultSLO = 2 * time.Second
		k, err := NewKraken(env, cfg)
		if err != nil {
			t.Fatalf("NewKraken: %v", err)
		}
		return k
	})
	if krakenContainers >= vanillaContainers {
		t.Fatalf("kraken containers = %d not fewer than vanilla = %d", krakenContainers, vanillaContainers)
	}
}

func TestKrakenPerFunctionSLO(t *testing.T) {
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.SLO = map[string]time.Duration{"fib30": 5 * time.Second}
	cfg.DefaultSLO = time.Second
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	fn := k.fnState("fib30")
	if fn.slo != 5*time.Second {
		t.Fatalf("fib30 slo = %v, want 5s", fn.slo)
	}
	other := k.fnState("fib20")
	if other.slo != time.Second {
		t.Fatalf("fib20 slo = %v, want default 1s", other.slo)
	}
}

func TestKrakenBatchingAvoidsMostColdStarts(t *testing.T) {
	// With a p98-style SLO (several times the exec time), Kraken batches
	// invocations into few containers, so most invocations of a steady
	// stream never pay a cold start.
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.DefaultSLO = 2 * time.Second
	cfg.InitialExecEstimate = 300 * time.Millisecond
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	spec := fibSpec(t, 30)
	const n = 30
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 50 * time.Millisecond // 1.5s stream
	}
	recs := runAll(t, env, k, specs, offsets)
	cold := 0
	for _, r := range recs {
		if r.ColdStart > 0 {
			cold++
		}
	}
	if cold >= n/2 {
		t.Errorf("%d/%d invocations paid cold start; prewarming ineffective", cold, n)
	}
}

func TestKrakenCloseReleasesIdleHandles(t *testing.T) {
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	spec := fibSpec(t, 25)
	recs := runAll(t, env, k, []workload.Spec{spec}, []time.Duration{0})
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	// After Close (called by runAll), no handle should pin a container:
	// keep-alive expiry evicts everything.
	env.Eng.Run()
	if env.Node.LiveContainers() != 0 {
		t.Fatalf("LiveContainers = %d after close+evict, want 0", env.Node.LiveContainers())
	}
}

func TestKrakenTerminatesBatchContainersByDefault(t *testing.T) {
	// Default Kraken retires each batch container (scale-in), so serving
	// two well-separated invocations provisions two containers.
	env := testEnv(t, nil)
	k, err := NewKraken(env, DefaultKrakenConfig())
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	spec := fibSpec(t, 25)
	runAll(t, env, k, []workload.Spec{spec, spec}, []time.Duration{0, 3 * time.Second})
	if got := env.Node.TotalCreated(); got != 2 {
		t.Fatalf("TotalCreated = %d, want 2 (fresh container per batch)", got)
	}
	if env.Node.LiveContainers() != 0 {
		t.Fatalf("LiveContainers = %d, want 0 after terminations", env.Node.LiveContainers())
	}
}

func TestKrakenMaxBatchValidation(t *testing.T) {
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.MaxBatch = 0
	if _, err := NewKraken(env, cfg); err == nil {
		t.Fatal("MaxBatch=0 accepted")
	}
}

func TestKrakenMaxBatchCapsCapacity(t *testing.T) {
	env := testEnv(t, nil)
	cfg := DefaultKrakenConfig()
	cfg.DefaultSLO = time.Hour // slack would allow thousands
	cfg.MaxBatch = 3
	k, err := NewKraken(env, cfg)
	if err != nil {
		t.Fatalf("NewKraken: %v", err)
	}
	fn := k.fnState("f")
	if got := k.batchCapacity(fn); got != 3 {
		t.Fatalf("batchCapacity = %d, want capped at 3", got)
	}
}

func TestSFSAdaptiveQuantumTracksIaT(t *testing.T) {
	env := testEnv(t, cpusched.NewMLFQ())
	cfg := DefaultSFSConfig()
	cfg.SchedOverhead = 0
	cfg.AdaptEvery = 4
	s, err := NewSFS(env, cfg)
	if err != nil {
		t.Fatalf("NewSFS: %v", err)
	}
	before := s.mlfq.BaseQuantum()
	spec := fibSpec(t, 22)
	// A steady 120ms inter-arrival stream should pull the base quantum
	// toward ~120ms (from the 50ms default).
	const n = 24
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 120 * time.Millisecond
	}
	runAll(t, env, s, specs, offsets)
	after := s.mlfq.BaseQuantum()
	if after <= before {
		t.Fatalf("quantum %v did not grow from %v toward the 120ms IaT", after, before)
	}
	if after < 80*time.Millisecond || after > 200*time.Millisecond {
		t.Fatalf("quantum = %v, want near the 120ms IaT", after)
	}
}

func TestSFSAdaptiveValidation(t *testing.T) {
	env := testEnv(t, cpusched.NewMLFQ())
	cfg := DefaultSFSConfig()
	cfg.MinQuantum = 0
	if _, err := NewSFS(env, cfg); err == nil {
		t.Error("MinQuantum=0 accepted")
	}
	cfg = DefaultSFSConfig()
	cfg.MaxQuantum = cfg.MinQuantum - 1
	if _, err := NewSFS(env, cfg); err == nil {
		t.Error("MaxQuantum < MinQuantum accepted")
	}
	cfg = DefaultSFSConfig()
	cfg.AdaptEvery = 0
	if _, err := NewSFS(env, cfg); err == nil {
		t.Error("AdaptEvery=0 accepted")
	}
}

func TestSFSQuantumZeroWithoutMLFQ(t *testing.T) {
	env := testEnv(t, cpusched.FairShare{})
	s, err := NewSFS(env, DefaultSFSConfig())
	if err != nil {
		t.Fatalf("NewSFS: %v", err)
	}
	if s.mlfq != nil {
		t.Fatal("SFS on a fair-share node holds an MLFQ to adapt")
	}
	// Arrivals must not panic or adapt anything.
	spec := fibSpec(t, 22)
	runAll(t, env, s, []workload.Spec{spec, spec}, []time.Duration{0, 50 * time.Millisecond})
}
