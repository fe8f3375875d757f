package core

import (
	"testing"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

func TestBusyContainerAcceptsLaterGroups(t *testing.T) {
	// A long-running batch occupies the only container; the next window's
	// group must join it as extra threads (no second container, no cold
	// start for the joiners).
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	long := fibSpec(t, 34)  // ~2.1s body
	short := fibSpec(t, 34) // same function name
	specs := []workload.Spec{long, short}
	// Second arrives after the first batch is expanded (boot ~500ms done
	// by t=800ms) but long before it completes.
	offsets := []time.Duration{0, 900 * time.Millisecond}
	recs := runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 1 {
		t.Fatalf("TotalCreated = %d, want 1 (join busy container)", got)
	}
	coldFree := 0
	for _, r := range recs {
		if r.ColdStart == 0 {
			coldFree++
		}
	}
	if coldFree != 1 {
		t.Fatalf("%d invocations warm, want exactly the joiner", coldFree)
	}
}

func TestMaxPendingCreatesAttachesGroups(t *testing.T) {
	// With the scale-out bound at 1, windows that close during the boot
	// attach to the single in-flight creation instead of spawning more
	// containers.
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Interval = 100 * time.Millisecond
	cfg.MaxPendingCreates = 1
	f := newScheduler(t, env, cfg)
	spec := fibSpec(t, 25)
	// Boot takes ~500ms; five windows' worth of arrivals land during it.
	specs := make([]workload.Spec, 5)
	offsets := make([]time.Duration, 5)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 100 * time.Millisecond
	}
	recs := runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 1 {
		t.Fatalf("TotalCreated = %d, want 1 under MaxPendingCreates=1", got)
	}
	// Attached groups' cold share shrinks with later dispatch: the group
	// dispatched last waited the least.
	var first, last time.Duration
	for _, r := range recs {
		if r.ID == 0 {
			first = r.ColdStart
		}
		if r.ID == 4 {
			last = r.ColdStart
		}
	}
	if first == 0 || last == 0 {
		t.Fatalf("boot-sharing invocations must carry cold time: first=%v last=%v", first, last)
	}
	if last >= first {
		t.Fatalf("later group's cold share %v not smaller than first %v", last, first)
	}
}

func TestUnboundedCreatesSpawnPerWindowDuringBoot(t *testing.T) {
	// The inverse of the attach test: with a high bound, each window that
	// closes while everything is booting creates its own container.
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Interval = 100 * time.Millisecond
	cfg.MaxPendingCreates = 100
	f := newScheduler(t, env, cfg)
	spec := fibSpec(t, 25)
	specs := make([]workload.Spec, 5)
	offsets := make([]time.Duration, 5)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 100 * time.Millisecond
	}
	runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got < 3 {
		t.Fatalf("TotalCreated = %d, want several (one per boot-era window)", got)
	}
}

func TestWarmContainerPreferredOverBusyJoin(t *testing.T) {
	// When an idle keep-alive container exists, a new group must take it
	// instead of piling onto a busy one.
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	long := fibSpec(t, 34)
	quick := long                     // same function identity ...
	quick.Work = 2 * time.Millisecond // ... but a fast body
	// Window 1: a quick batch creates container A and finishes fast ->
	// A parks warm. Window 2 (t=1.2s): a long batch takes A (warm).
	// Window 3 (t=1.6s): another quick group; A is busy with the long
	// batch, no warm container -> it joins A (total containers stays 1).
	specs := []workload.Spec{quick, long, quick}
	offsets := []time.Duration{0, 1200 * time.Millisecond, 1600 * time.Millisecond}
	recs := runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 1 {
		t.Fatalf("TotalCreated = %d, want 1", got)
	}
	warm := 0
	for _, r := range recs {
		if r.ColdStart == 0 {
			warm++
		}
	}
	if warm != 2 {
		t.Fatalf("warm invocations = %d, want 2 (the warm take and the join)", warm)
	}
}

func TestStatsTrackGroups(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 22)
	// Two windows with 3 and 2 invocations.
	specs := make([]workload.Spec, 5)
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond,
		1100 * time.Millisecond, 1110 * time.Millisecond}
	for i := range specs {
		specs[i] = spec
	}
	runAll(t, env, f, specs, offsets)
	st := f.Stats()
	if st.Groups != 2 || st.Submitted != 5 {
		t.Fatalf("stats = %+v, want 2 groups / 5 submitted", st)
	}
	if st.MaxGroupSize != 3 {
		t.Fatalf("MaxGroupSize = %d, want 3", st.MaxGroupSize)
	}
	if got := st.AvgGroupSize(); got != 2.5 {
		t.Fatalf("AvgGroupSize = %v, want 2.5", got)
	}
	var zero Stats
	if zero.AvgGroupSize() != 0 {
		t.Fatal("zero stats AvgGroupSize should be 0")
	}
}

func TestOwnedListPrunesParkedContainers(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 20)
	recs := runAll(t, env, f, []workload.Spec{spec}, []time.Duration{0})
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	// The container parked; busyContainer must prune it and return nil.
	st := f.state(spec.Name)
	if c := st.busyContainer(); c != nil {
		t.Fatalf("busyContainer returned parked container %v", c.ID())
	}
	if len(st.owned) != 0 {
		t.Fatalf("owned list not pruned: %d entries", len(st.owned))
	}
}

func TestAttachedGroupsUseMultiplexer(t *testing.T) {
	// Attached groups expand on the same container, so they share its
	// multiplexer cache with the creator group.
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Interval = 100 * time.Millisecond
	cfg.MaxPendingCreates = 1
	f := newScheduler(t, env, cfg)
	spec := workload.IOSpec("s3func")
	specs := []workload.Spec{spec, spec, spec}
	offsets := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond}
	runAll(t, env, f, specs, offsets)
	if got := env.Runner.Stats().ClientsBuilt; got != 1 {
		t.Fatalf("ClientsBuilt = %d, want 1 across creator+attached groups", got)
	}
	if env.Node.TotalCreated() != 1 {
		t.Fatalf("TotalCreated = %d, want 1", env.Node.TotalCreated())
	}
}

func TestInvocationDoneExactlyOnceAcrossJoinPaths(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Interval = 50 * time.Millisecond
	cfg.MaxPendingCreates = 2
	f, err := New(env, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := fibSpec(t, 28)
	const n = 30
	counts := make(map[int64]int)
	for i := 0; i < n; i++ {
		i := i
		env.Eng.Schedule(time.Duration(i*40)*time.Millisecond, func() {
			inv := fnruntime.NewInvocation(int64(i), spec, env.Eng.Now())
			f.Submit(inv, func(done *fnruntime.Invocation) { counts[done.ID]++ })
		})
	}
	total := 0
	for total < n {
		if !env.Eng.Step() {
			t.Fatalf("drained with %d/%d", total, n)
		}
		total = 0
		for _, c := range counts {
			total += c
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("invocation %d completed %d times", id, c)
		}
	}
	_ = node.AcquireOptions{} // keep the node import for the test package
}

func TestPrewarmValidation(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Prewarm = true
	cfg.PrewarmHorizon = 0
	if _, err := New(env, cfg); err == nil {
		t.Fatal("prewarm horizon 0 accepted")
	}
	cfg.PrewarmHorizon = -time.Second
	if _, err := New(env, cfg); err == nil {
		t.Fatal("negative prewarm horizon accepted")
	}
}

// prewarmEnv builds an env whose keep-alive is shorter than the burst
// period, so recurring bursts lose their containers between arrivals —
// the regime pre-warming targets.
func prewarmEnv(t *testing.T) policy.Env {
	t.Helper()
	eng := sim.New(1)
	cfg := node.DefaultConfig()
	cfg.Cores = 8
	cfg.CreateConcurrency = 2
	cfg.CreateCPUWork = 100 * time.Millisecond
	cfg.ContainerInitCPUWork = 0
	cfg.ColdStartLatency = 400 * time.Millisecond
	cfg.KeepAlive = 2 * time.Second
	n, err := node.New(eng, cfg)
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return policy.Env{Eng: eng, Node: n, Runner: fnruntime.NewRunner(eng)}
}

func TestPrewarmKeepsRecurringBurstsWarm(t *testing.T) {
	// Bursts every 5s with a 2s keep-alive: without prewarming each burst
	// cold-starts; with it, the activity horizon re-provisions capacity
	// as soon as eviction strikes, so later bursts run warm.
	run := func(prewarm bool) (coldCount int, prewarms int64) {
		env := prewarmEnv(t)
		cfg := DefaultConfig()
		cfg.Prewarm = prewarm
		cfg.PrewarmHorizon = 30 * time.Second
		f, err := New(env, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		spec := fibSpec(t, 22)
		const perBurst, bursts = 4, 5
		specs := make([]workload.Spec, 0, perBurst*bursts)
		offsets := make([]time.Duration, 0, perBurst*bursts)
		for b := 0; b < bursts; b++ {
			for i := 0; i < perBurst; i++ {
				specs = append(specs, spec)
				offsets = append(offsets, time.Duration(b)*5*time.Second+time.Duration(i)*10*time.Millisecond)
			}
		}
		recs := runAll(t, env, f, specs, offsets)
		for _, r := range recs {
			if r.ColdStart > 0 {
				coldCount++
			}
		}
		return coldCount, f.Stats().Prewarms
	}
	offCold, _ := run(false)
	onCold, prewarms := run(true)
	if prewarms == 0 {
		t.Fatal("prewarming never fired")
	}
	if onCold >= offCold {
		t.Fatalf("prewarm cold count %d not below baseline %d", onCold, offCold)
	}
}

func TestPrewarmForgetsIdleFunctions(t *testing.T) {
	// After the horizon passes with no arrivals, prewarming stops
	// re-provisioning and the node drains to zero containers.
	env := prewarmEnv(t)
	cfg := DefaultConfig()
	cfg.Prewarm = true
	cfg.PrewarmHorizon = 3 * time.Second
	f, err := New(env, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := fibSpec(t, 22)
	recs := runAll(t, env, f, []workload.Spec{spec}, []time.Duration{0})
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	// Long idle stretch: the horizon expires, prewarmed capacity evicts,
	// and nothing new is created.
	env.Eng.RunUntil(env.Eng.Now().Add(30 * time.Second))
	if env.Node.LiveContainers() != 0 {
		t.Fatalf("LiveContainers = %d after idle horizon, want 0", env.Node.LiveContainers())
	}
	created := env.Node.TotalCreated()
	env.Eng.RunUntil(env.Eng.Now().Add(10 * time.Second))
	if env.Node.TotalCreated() != created {
		t.Fatalf("idle prewarming kept creating: %d -> %d", created, env.Node.TotalCreated())
	}
}
