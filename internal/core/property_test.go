package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// Property tests for the Invoke Mapper invariants. Each trial draws a
// random workload (function count, arrival pattern, body shapes) and a
// random fault mix, replays it, and checks the invariants that hold for
// every workload:
//
//  1. every submitted invocation completes exactly once — even when its
//     containers crash repeatedly, it finishes (possibly as a failure),
//     and never twice;
//  2. groups never mix function identities — a container only ever
//     executes the function it was provisioned for;
//  3. Stats.Submitted == completed successes + failures at quiescence.

// propertyTrial is one randomly drawn workload + fault mix.
type propertyTrial struct {
	seed      int64
	functions int
	invs      int
	span      time.Duration
	crashRate float64
	bootRate  float64
}

// drawTrial samples a trial from rng.
func drawTrial(rng *rand.Rand) propertyTrial {
	return propertyTrial{
		seed:      rng.Int63(),
		functions: 1 + rng.Intn(5),
		invs:      10 + rng.Intn(90),
		span:      time.Duration(1+rng.Intn(3)) * time.Second,
		crashRate: rng.Float64() * 0.3,
		bootRate:  rng.Float64() * 0.3,
	}
}

// runTrial replays one trial to quiescence and returns the records plus
// the scheduler's final stats.
func runTrial(t *testing.T, tr propertyTrial) ([]fnruntime.Record, Stats) {
	t.Helper()
	eng := sim.New(tr.seed)
	inj, err := chaos.New(chaos.Config{
		Seed: tr.seed,
		Rates: map[chaos.Kind]float64{
			chaos.ContainerCrash: tr.crashRate,
			chaos.BootFailure:    tr.bootRate,
		},
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	ncfg := node.DefaultConfig()
	ncfg.Cores = 4
	ncfg.ContainerInitCPUWork = 0
	ncfg.ColdStartLatency = 200 * time.Millisecond
	ncfg.KeepAlive = time.Hour
	ncfg.Chaos = inj
	n, err := node.New(eng, ncfg)
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	runner := fnruntime.NewRunner(eng)
	runner.SetChaos(inj)
	env := policy.Env{Eng: eng, Node: n, Runner: runner}
	f := newScheduler(t, env, DefaultConfig())

	rng := rand.New(rand.NewSource(tr.seed + 1))
	specs := make([]workload.Spec, tr.invs)
	offsets := make([]time.Duration, tr.invs)
	for i := range specs {
		specs[i] = workload.Spec{
			Name:   fmt.Sprintf("fn%d", rng.Intn(tr.functions)),
			Work:   time.Duration(rng.Intn(20)) * time.Millisecond,
			IOWait: time.Duration(rng.Intn(50)) * time.Millisecond,
		}
		offsets[i] = time.Duration(rng.Float64() * float64(tr.span))
	}

	completions := make(map[int64]int)
	var recs []fnruntime.Record
	for i := range specs {
		i := i
		eng.Schedule(offsets[i], func() {
			inv := fnruntime.NewInvocation(int64(i), specs[i], eng.Now())
			f.Submit(inv, func(done *fnruntime.Invocation) {
				completions[done.ID]++
				recs = append(recs, done.Record)
			})
		})
	}
	for len(recs) < len(specs) {
		if !eng.Step() {
			t.Fatalf("engine drained with %d/%d complete (crash=%.2f boot=%.2f seed=%d)",
				len(recs), len(specs), tr.crashRate, tr.bootRate, tr.seed)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for id, nc := range completions {
		if nc != 1 {
			t.Fatalf("invocation %d completed %d times (seed=%d)", id, nc, tr.seed)
		}
	}
	return recs, f.Stats()
}

// checkInvariants asserts the Invoke Mapper invariants over one replay.
func checkInvariants(t *testing.T, tr propertyTrial, recs []fnruntime.Record, st Stats) {
	t.Helper()
	// (1) exactly once: one record per submitted invocation.
	if int64(len(recs)) != st.Submitted {
		t.Errorf("records %d != submitted %d (seed=%d)", len(recs), st.Submitted, tr.seed)
	}
	// (3) submitted == successes + failures.
	var failed int64
	for _, r := range recs {
		if r.Failed {
			failed++
		}
	}
	if failed != st.Failed {
		t.Errorf("failed records %d != Stats.Failed %d (seed=%d)", failed, st.Failed, tr.seed)
	}
	if st.Submitted != (int64(len(recs))-failed)+failed {
		t.Errorf("submitted %d != completed %d + failed %d (seed=%d)",
			st.Submitted, int64(len(recs))-failed, failed, tr.seed)
	}
	// (2) group purity: a container executes exactly one function.
	fnOf := make(map[string]string)
	for _, r := range recs {
		if r.Container == "" {
			continue // never reached a container body
		}
		if prev, ok := fnOf[r.Container]; ok && prev != r.Fn {
			t.Errorf("container %s mixed functions %s and %s (seed=%d)",
				r.Container, prev, r.Fn, tr.seed)
		}
		fnOf[r.Container] = r.Fn
	}
	// Failures only ever appear when faults were actually injected.
	if tr.crashRate == 0 && tr.bootRate == 0 && failed > 0 {
		t.Errorf("%d failures without any injected faults (seed=%d)", failed, tr.seed)
	}
}

func TestPropertyInvokeMapperInvariants(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(20250805))
	for i := 0; i < trials; i++ {
		tr := drawTrial(rng)
		recs, st := runTrial(t, tr)
		checkInvariants(t, tr, recs, st)
	}
}

// TestPropertyFaultFreeRunsHaveNoRetries pins the opt-in guarantee: with
// no injector configured, nothing retries, nothing fails, and the fault
// counters all stay zero.
func TestPropertyFaultFreeRunsHaveNoRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		tr := drawTrial(rng)
		tr.crashRate, tr.bootRate = 0, 0
		recs, st := runTrial(t, tr)
		checkInvariants(t, tr, recs, st)
		if st.Retries != 0 || st.Failed != 0 || st.GroupRedispatches != 0 {
			t.Fatalf("fault-free run has retries=%d failed=%d redispatches=%d (seed=%d)",
				st.Retries, st.Failed, st.GroupRedispatches, tr.seed)
		}
		for _, r := range recs {
			if r.Retries != 0 || r.Failed {
				t.Fatalf("fault-free record retried/failed: %+v (seed=%d)", r, tr.seed)
			}
		}
	}
}

// TestPropertySameSeedSameOutcome pins fault-schedule determinism end to
// end: replaying the same trial (same sim seed, same chaos seed) yields
// byte-identical record sets.
func TestPropertySameSeedSameOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := drawTrial(rng)
	tr.crashRate = 0.15
	recs1, st1 := runTrial(t, tr)
	recs2, st2 := runTrial(t, tr)
	if st1 != st2 {
		t.Fatalf("stats diverged across identical replays:\n%+v\n%+v", st1, st2)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("record counts diverged: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i] != recs2[i] {
			t.Fatalf("record %d diverged:\n%+v\n%+v", i, recs1[i], recs2[i])
		}
	}
}
