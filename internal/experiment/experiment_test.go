package experiment

import (
	"testing"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// smallCPUTrace builds a reduced CPU-intensive burst trace for fast tests.
func smallCPUTrace(t *testing.T, n int) trace.Trace {
	t.Helper()
	cfg := trace.DefaultBurstConfig(workload.CPUIntensive)
	cfg.N = n
	cfg.Span = 20 * time.Second
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		t.Fatalf("SynthesizeBurst: %v", err)
	}
	return tr
}

func smallIOTrace(t *testing.T, n int) trace.Trace {
	t.Helper()
	cfg := trace.DefaultBurstConfig(workload.IO)
	cfg.N = n
	cfg.Span = 20 * time.Second
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		t.Fatalf("SynthesizeBurst: %v", err)
	}
	return tr
}

func TestPolicyKindString(t *testing.T) {
	names := map[PolicyKind]string{
		PolicyVanilla:   "vanilla",
		PolicySFS:       "sfs",
		PolicyKraken:    "kraken",
		PolicyFaaSBatch: "faasbatch",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if PolicyKind(0).String() != "policy(0)" {
		t.Error("unknown policy string wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Policy: PolicyKind(99), Trace: smallCPUTrace(t, 5)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Run(Config{Policy: PolicyVanilla}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestRunCompletesEveryInvocation(t *testing.T) {
	tr := smallCPUTrace(t, 100)
	for _, p := range AllPolicies {
		res, err := Run(Config{Policy: p, Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Records) != tr.Len() {
			t.Errorf("%v: %d records, want %d", p, len(res.Records), tr.Len())
		}
		if res.Policy != p.String() {
			t.Errorf("result policy = %q, want %q", res.Policy, p)
		}
		if res.TotalContainers < 1 {
			t.Errorf("%v: no containers provisioned", p)
		}
		if res.Makespan <= 0 {
			t.Errorf("%v: makespan = %v", p, res.Makespan)
		}
		if len(res.Samples) < 2 {
			t.Errorf("%v: only %d samples", p, len(res.Samples))
		}
		for _, r := range res.Records {
			if r.Total() <= 0 {
				t.Errorf("%v: non-positive total latency %+v", p, r)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallCPUTrace(t, 60)
	run := func() *Result {
		res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 7})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalContainers != b.TotalContainers || a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %d/%v vs %d/%v", a.TotalContainers, a.Makespan, b.TotalContainers, b.Makespan)
	}
	am := map[int64]time.Duration{}
	for _, r := range a.Records {
		am[r.ID] = r.Total()
	}
	for _, r := range b.Records {
		if am[r.ID] != r.Total() {
			t.Fatalf("record %d diverged: %v vs %v", r.ID, am[r.ID], r.Total())
		}
	}
}

func TestFaaSBatchProvisionsFewestContainers(t *testing.T) {
	tr := smallIOTrace(t, 150)
	containers := map[PolicyKind]int{}
	for _, p := range AllPolicies {
		res, err := Run(Config{Policy: p, Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		containers[p] = res.TotalContainers
	}
	if containers[PolicyFaaSBatch] >= containers[PolicyVanilla] {
		t.Errorf("faasbatch containers %d not fewer than vanilla %d", containers[PolicyFaaSBatch], containers[PolicyVanilla])
	}
	if containers[PolicyFaaSBatch] >= containers[PolicySFS] {
		t.Errorf("faasbatch containers %d not fewer than sfs %d", containers[PolicyFaaSBatch], containers[PolicySFS])
	}
	if containers[PolicyKraken] >= containers[PolicyVanilla] {
		t.Errorf("kraken containers %d not fewer than vanilla %d", containers[PolicyKraken], containers[PolicyVanilla])
	}
}

func TestMultiplexerCollapsesIOExecution(t *testing.T) {
	tr := smallIOTrace(t, 150)
	fb, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("faasbatch: %v", err)
	}
	va, err := Run(Config{Policy: PolicyVanilla, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("vanilla: %v", err)
	}
	// FaaSBatch execution latency must sit in the paper's 10–100 ms band.
	fbExec := fb.CDF(Execution)
	if fbExec.P(0.95) > 100*time.Millisecond {
		t.Errorf("faasbatch exec p95 = %v, want <= 100ms", fbExec.P(0.95))
	}
	// And its client memory per invocation must be far below Vanilla's.
	if fb.ClientMemPerInvocation*5 > va.ClientMemPerInvocation {
		t.Errorf("client mem per invocation: faasbatch %.2f vs vanilla %.2f, want >= 5x gap",
			fb.ClientMemPerInvocation/(1<<20), va.ClientMemPerInvocation/(1<<20))
	}
	if fb.Runner.CacheHits+fb.Runner.CacheCoalesced == 0 {
		t.Error("faasbatch multiplexer recorded no hits")
	}
	if fb.Batch == nil || fb.Batch.Groups == 0 {
		t.Error("faasbatch batch stats missing")
	}
}

func TestMultiplexAblation(t *testing.T) {
	tr := smallIOTrace(t, 100)
	on, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("multiplex on: %v", err)
	}
	off, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1, DisableMultiplex: true})
	if err != nil {
		t.Fatalf("multiplex off: %v", err)
	}
	if off.Runner.ClientsBuilt <= on.Runner.ClientsBuilt {
		t.Errorf("clients built: off %d <= on %d", off.Runner.ClientsBuilt, on.Runner.ClientsBuilt)
	}
	onExec := on.CDF(Execution)
	offExec := off.CDF(Execution)
	if offExec.P(0.9) <= onExec.P(0.9) {
		t.Errorf("exec p90 without multiplexer %v not worse than with %v", offExec.P(0.9), onExec.P(0.9))
	}
}

func TestKrakenHasQueuingOthersDoNot(t *testing.T) {
	tr := smallCPUTrace(t, 120)
	kr, err := Run(Config{Policy: PolicyKraken, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("kraken: %v", err)
	}
	va, err := Run(Config{Policy: PolicyVanilla, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("vanilla: %v", err)
	}
	fb, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("faasbatch: %v", err)
	}
	if kr.CDF(Queuing).P(1) == 0 {
		t.Error("kraken shows no queuing latency")
	}
	if va.CDF(Queuing).P(1) != 0 {
		t.Error("vanilla shows queuing latency")
	}
	if fb.CDF(Queuing).P(1) != 0 {
		t.Error("faasbatch shows queuing latency (inline parallel must not queue)")
	}
}

func TestFaaSBatchSchedulingBoundedByWindow(t *testing.T) {
	tr := smallCPUTrace(t, 150)
	interval := 200 * time.Millisecond
	res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1, Interval: interval})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sched := res.CDF(Scheduling)
	// Without engine-queue congestion FaaSBatch scheduling latency is
	// bounded by window + http hop (plus rare creation-queue waits).
	if sched.P(0.9) > interval+50*time.Millisecond {
		t.Errorf("faasbatch sched p90 = %v, want <= window+slack", sched.P(0.9))
	}
}

func TestIntervalSweepShrinksFaaSBatchContainers(t *testing.T) {
	tr := smallIOTrace(t, 150)
	small, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("10ms: %v", err)
	}
	large, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: 1, Interval: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("500ms: %v", err)
	}
	if large.TotalContainers > small.TotalContainers {
		t.Errorf("500ms interval created %d containers vs %d at 10ms; larger windows must not need more",
			large.TotalContainers, small.TotalContainers)
	}
	if large.AvgMemBytes > small.AvgMemBytes*1.1 {
		t.Errorf("500ms avg mem %.0f worse than 10ms %.0f", large.AvgMemBytes, small.AvgMemBytes)
	}
}

func TestSLOFromVanilla(t *testing.T) {
	tr := smallCPUTrace(t, 80)
	slo, err := SLOFromVanilla(Config{Policy: PolicyKraken, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("SLOFromVanilla: %v", err)
	}
	if len(slo) == 0 {
		t.Fatal("no SLOs derived")
	}
	for fn, s := range slo {
		if s <= 0 {
			t.Errorf("SLO[%s] = %v", fn, s)
		}
	}
}

func TestSpecsFor(t *testing.T) {
	tr := trace.Trace{Invocations: []trace.Invocation{
		{Fn: "fib", FibN: 25},
		{Fn: "s3func"},
	}}
	specs, err := SpecsFor(tr)
	if err != nil {
		t.Fatalf("SpecsFor: %v", err)
	}
	if specs[0].Kind != workload.CPUIntensive || specs[0].Name != "fib" {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Kind != workload.IO || specs[1].Client == nil {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	bad := trace.Trace{Invocations: []trace.Invocation{{Fn: "fib", FibN: 5}}}
	if _, err := SpecsFor(bad); err == nil {
		t.Error("invalid fib N accepted")
	}
}

func TestCPUUtilPositiveAndBounded(t *testing.T) {
	tr := smallCPUTrace(t, 100)
	res, err := Run(Config{Policy: PolicyVanilla, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Errorf("CPUUtil = %v, want (0, 1]", res.CPUUtil)
	}
}

func TestRunSurvivesBootFailures(t *testing.T) {
	// Failure injection: 30% of container boots fail and retry. Every
	// policy must still complete every invocation, with failures visible
	// as longer cold starts rather than lost work.
	tr := smallCPUTrace(t, 60)
	faults := &chaos.Config{Rates: map[chaos.Kind]float64{chaos.BootFailure: 0.3}}
	for _, p := range AllPolicies {
		res, err := Run(Config{Policy: p, Trace: tr, Seed: 3, Chaos: faults})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Records) != tr.Len() {
			t.Errorf("%v: %d/%d records under boot failures", p, len(res.Records), tr.Len())
		}
	}
}
