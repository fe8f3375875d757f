package core

import (
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

func testEnv(t *testing.T) policy.Env {
	t.Helper()
	eng := sim.New(1)
	cfg := node.DefaultConfig()
	cfg.Cores = 8
	cfg.CreateConcurrency = 2
	cfg.CreateCPUWork = 100 * time.Millisecond
	cfg.ContainerInitCPUWork = 0
	cfg.ColdStartLatency = 400 * time.Millisecond
	cfg.KeepAlive = time.Hour
	n, err := node.New(eng, cfg)
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return policy.Env{Eng: eng, Node: n, Runner: fnruntime.NewRunner(eng)}
}

func newScheduler(t *testing.T, env policy.Env, cfg Config) *FaaSBatch {
	t.Helper()
	f, err := New(env, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func fibSpec(t *testing.T, n int) workload.Spec {
	t.Helper()
	s, err := workload.FibSpec(n)
	if err != nil {
		t.Fatalf("FibSpec(%d): %v", n, err)
	}
	return s
}

// runAll drives the engine until every submitted invocation completed.
func runAll(t *testing.T, env policy.Env, f *FaaSBatch, specs []workload.Spec, offsets []time.Duration) []fnruntime.Record {
	t.Helper()
	var recs []fnruntime.Record
	for i := range specs {
		i := i
		env.Eng.Schedule(offsets[i], func() {
			inv := fnruntime.NewInvocation(int64(i), specs[i], env.Eng.Now())
			f.Submit(inv, func(done *fnruntime.Invocation) { recs = append(recs, done.Record) })
		})
	}
	for len(recs) < len(specs) {
		if !env.Eng.Step() {
			t.Fatalf("engine drained with %d/%d complete", len(recs), len(specs))
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return recs
}

func TestConfigValidation(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Interval = 0
	if _, err := New(env, cfg); err == nil {
		t.Error("zero interval accepted")
	}
	cfg = DefaultConfig()
	cfg.HTTPLatency = -1
	if _, err := New(env, cfg); err == nil {
		t.Error("negative http latency accepted")
	}
	if _, err := New(policy.Env{}, DefaultConfig()); err == nil {
		t.Error("empty env accepted")
	}
}

func TestName(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	if f.Name() != "faasbatch" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestWholeWindowSharesOneContainer(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 25)
	const n = 20
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 5 * time.Millisecond // all in one 200ms window
	}
	recs := runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 1 {
		t.Fatalf("TotalCreated = %d, want 1 (whole group in one container)", got)
	}
	st := f.Stats()
	if st.Groups != 1 || st.Submitted != n || st.MaxGroupSize != n {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.AvgGroupSize(); got != float64(n) {
		t.Fatalf("AvgGroupSize = %v, want %d", got, n)
	}
	// Inline parallel: no queuing latency at all.
	for _, r := range recs {
		if r.Queue != 0 {
			t.Fatalf("Queue = %v, want 0 (inline parallel)", r.Queue)
		}
	}
}

func TestSchedulingLatencyIsWindowWait(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.HTTPLatency = 0
	f := newScheduler(t, env, cfg)
	spec := fibSpec(t, 25)
	// Arrives at 50ms; the window closes at 200ms -> 150ms window wait.
	recs := runAll(t, env, f, []workload.Spec{spec}, []time.Duration{50 * time.Millisecond})
	if got := recs[0].Sched; got < 149*time.Millisecond || got > 151*time.Millisecond {
		t.Fatalf("Sched = %v, want ~150ms window wait", got)
	}
}

func TestHTTPLatencyCountsTowardScheduling(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.HTTPLatency = 10 * time.Millisecond
	f := newScheduler(t, env, cfg)
	spec := fibSpec(t, 25)
	recs := runAll(t, env, f, []workload.Spec{spec}, []time.Duration{190 * time.Millisecond})
	// 10ms window wait + 10ms HTTP hop.
	if got := recs[0].Sched; got < 19*time.Millisecond || got > 21*time.Millisecond {
		t.Fatalf("Sched = %v, want ~20ms", got)
	}
}

func TestGroupsArePerFunction(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	specA := fibSpec(t, 25)
	specB := fibSpec(t, 30)
	specs := []workload.Spec{specA, specA, specB, specB, specB}
	offsets := make([]time.Duration, len(specs))
	runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 2 {
		t.Fatalf("TotalCreated = %d, want 2 (one per function group)", got)
	}
	if st := f.Stats(); st.Groups != 2 {
		t.Fatalf("Groups = %d, want 2", st.Groups)
	}
}

func TestContainerReusedAcrossWindows(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 22) // short: batch finishes well within a window
	specs := []workload.Spec{spec, spec, spec}
	// Three separate windows, each starting after the previous batch
	// finished (the first one pays the ~500ms boot).
	offsets := []time.Duration{0, time.Second, 2 * time.Second}
	recs := runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 1 {
		t.Fatalf("TotalCreated = %d, want 1 (reused across windows)", got)
	}
	coldCount := 0
	for _, r := range recs {
		if r.ColdStart > 0 {
			coldCount++
		}
	}
	if coldCount != 1 {
		t.Fatalf("%d invocations paid cold start, want only the first window", coldCount)
	}
}

func TestBusyContainerForcesSecondContainer(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 34) // ~2.1s: batch still running when next window closes
	specs := []workload.Spec{spec, spec}
	offsets := []time.Duration{0, 300 * time.Millisecond}
	runAll(t, env, f, specs, offsets)
	if got := env.Node.TotalCreated(); got != 2 {
		t.Fatalf("TotalCreated = %d, want 2 (first container still busy)", got)
	}
}

func TestCPULimitApplied(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.CPULimit = 2
	f := newScheduler(t, env, cfg)
	spec := fibSpec(t, 25)
	// 8 concurrent ~10.7ms tasks limited to 2 cores: elapsed ~4x solo.
	const n = 8
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
	}
	recs := runAll(t, env, f, specs, offsets)
	var maxExec time.Duration
	for _, r := range recs {
		maxExec = max(maxExec, r.Exec)
	}
	wantMin := time.Duration(float64(spec.Work) * float64(n) / 2 * 0.9)
	if maxExec < wantMin {
		t.Fatalf("max Exec = %v under 2-core cap, want >= %v", maxExec, wantMin)
	}
}

func TestMultiplexEnabledByDefaultConfig(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := workload.IOSpec("s3func")
	const n = 9
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
	}
	recs := runAll(t, env, f, specs, offsets)
	st := env.Runner.Stats()
	if st.ClientsBuilt != 1 {
		t.Fatalf("ClientsBuilt = %d, want 1 (multiplexed)", st.ClientsBuilt)
	}
	for _, r := range recs {
		if r.Exec > 150*time.Millisecond {
			t.Fatalf("Exec = %v, want collapsed by multiplexer", r.Exec)
		}
	}
}

func TestMultiplexDisabledAblation(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.Multiplex = false
	f := newScheduler(t, env, cfg)
	spec := workload.IOSpec("s3func")
	const n = 9
	specs := make([]workload.Spec, n)
	offsets := make([]time.Duration, n)
	for i := range specs {
		specs[i] = spec
	}
	runAll(t, env, f, specs, offsets)
	if got := env.Runner.Stats().ClientsBuilt; got != n {
		t.Fatalf("ClientsBuilt = %d, want %d without multiplexer", got, n)
	}
}

func TestCloseFlushesPendingWindow(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 25)
	done := false
	inv := fnruntime.NewInvocation(1, spec, env.Eng.Now())
	f.Submit(inv, func(*fnruntime.Invocation) { done = true })
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	env.Eng.Run()
	if !done {
		t.Fatal("pending invocation lost on Close")
	}
	// Double close is a no-op.
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestLatencyDecompositionAdditive(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 28)
	specs := make([]workload.Spec, 6)
	offsets := make([]time.Duration, 6)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i*60) * time.Millisecond
	}
	recs := runAll(t, env, f, specs, offsets)
	for _, r := range recs {
		if r.Total() != r.Sched+r.ColdStart+r.Queue+r.Exec {
			t.Fatalf("decomposition broken: %+v", r)
		}
		if r.Sched < 0 || r.ColdStart < 0 || r.Queue < 0 || r.Exec <= 0 {
			t.Fatalf("negative/zero component: %+v", r)
		}
	}
}

// Property: every submitted invocation completes exactly once, regardless
// of arrival pattern and interval, and group count never exceeds
// (windows x functions).
func TestPropertyCompleteness(t *testing.T) {
	f := func(seed int64, raw []uint16, intervalRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		eng := sim.New(seed)
		ncfg := node.DefaultConfig()
		ncfg.Cores = 8
		ncfg.KeepAlive = time.Hour
		n, err := node.New(eng, ncfg)
		if err != nil {
			return false
		}
		env := policy.Env{Eng: eng, Node: n, Runner: fnruntime.NewRunner(eng)}
		cfg := DefaultConfig()
		cfg.Interval = time.Duration(int(intervalRaw)%490+10) * time.Millisecond
		fb, err := New(env, cfg)
		if err != nil {
			return false
		}
		completed := map[int64]int{}
		for i, r := range raw {
			i, r := i, r
			eng.Schedule(time.Duration(r%5000)*time.Millisecond, func() {
				spec, err := workload.FibSpec(20 + int(r)%16)
				if err != nil {
					return
				}
				inv := fnruntime.NewInvocation(int64(i), spec, eng.Now())
				fb.Submit(inv, func(done *fnruntime.Invocation) { completed[done.ID]++ })
			})
		}
		total := 0
		for total < len(raw) {
			if !eng.Step() {
				return false
			}
			total = 0
			for _, c := range completed {
				total += c
			}
		}
		if err := fb.Close(); err != nil {
			return false
		}
		for _, c := range completed {
			if c != 1 {
				return false
			}
		}
		return len(completed) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupsAreRecycled: a drained group goes back to the free list with
// nothing of its members left on it, and the next window reuses it — the
// scheduler makes as many groups as it ever has in flight at once.
func TestGroupsAreRecycled(t *testing.T) {
	env := testEnv(t)
	f := newScheduler(t, env, DefaultConfig())
	spec := fibSpec(t, 20)
	const windows = 12
	specs := make([]workload.Spec, windows)
	offsets := make([]time.Duration, windows)
	for i := range specs {
		specs[i] = spec
		offsets[i] = time.Duration(i) * 5 * time.Second // one window each, long drained before the next
	}
	runAll(t, env, f, specs, offsets)
	if got := f.Stats().Groups; got != windows {
		t.Fatalf("groups = %d, want %d", got, windows)
	}
	g := f.free
	if g == nil || g.next != nil {
		t.Fatalf("free list does not hold exactly one group after %d sequential windows", windows)
	}
	if len(g.members) != 0 || g.st != nil || g.c != nil || g.outstanding != 0 {
		t.Fatalf("recycled group still holds state: %d members, st %v, c %v, outstanding %d", len(g.members), g.st, g.c, g.outstanding)
	}
	if cap(g.members) == 0 || cap(f.state(spec.Name).pending) == 0 {
		t.Fatal("member and pending buffers should keep their capacity across dispatches")
	}
}

// TestBodyReturningAtOnceDoesNotSettleUnderRun: a body with no I/O wait
// and no CPU work returns inside Execute, while run is still handing the
// group's other members to the runner. The group must settle — return its
// reservation and be recycled — exactly once, after the last of them.
func TestBodyReturningAtOnceDoesNotSettleUnderRun(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultConfig()
	cfg.HTTPLatency = 0
	f := newScheduler(t, env, cfg)
	instant := workload.Spec{Name: "noop"}
	specs := []workload.Spec{instant, instant, instant, instant}
	recs := runAll(t, env, f, specs, make([]time.Duration, len(specs)))
	if len(recs) != len(specs) {
		t.Fatalf("records = %d, want %d", len(recs), len(specs))
	}
	if got := f.Stats().Groups; got != 1 {
		t.Fatalf("groups = %d, want one window of four", got)
	}
	if f.free == nil || f.free.next != nil {
		t.Fatal("the group was not recycled exactly once")
	}
	if got := env.Node.WarmCount("noop"); got != 1 {
		t.Fatalf("warm containers = %d, want the group's one, parked after a single ReturnThread", got)
	}
}
