package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/node"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// RunAblationMultiplex isolates the Resource Multiplexer (§III-D) from
// the batching modules: FaaSBatch with the multiplexer on versus off on
// the I/O workload, plus Vanilla for reference. The batching-only variant
// still saves containers but pays the full redundant-creation cost —
// exactly the gap the multiplexer closes.
func RunAblationMultiplex(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	type variant struct {
		label      string
		policy     PolicyKind
		disableMux bool
	}
	variants := []variant{
		{"faasbatch (full)", PolicyFaaSBatch, false},
		{"faasbatch (no multiplexer)", PolicyFaaSBatch, true},
		{"vanilla", PolicyVanilla, false},
	}
	tbl := NewTable(
		"Ablation — Resource Multiplexer on the I/O workload",
		"variant", "containers", "clients built", "client MB/inv", "exec p50", "exec p99", "total mean")
	for _, v := range variants {
		res, err := Run(Config{
			Policy:           v.policy,
			Trace:            tr,
			Seed:             opts.Seed,
			DisableMultiplex: v.disableMux,
		})
		if err != nil {
			return fmt.Errorf("ablation %s: %w", v.label, err)
		}
		exec := res.CDF(Execution)
		tot := res.CDF(EndToEnd)
		tbl.AddRow(v.label, res.TotalContainers, res.Runner.ClientsBuilt,
			fmt.Sprintf("%.2f", res.ClientMemPerInvocation/(1<<20)),
			exec.P(0.5).Round(time.Millisecond), exec.P(0.99).Round(time.Millisecond),
			tot.Mean().Round(time.Millisecond))
	}
	return tbl.Render(w)
}

// RunAblationKeepAlive sweeps the container keep-alive across policies on
// the I/O workload: short keep-alives trade memory for cold starts. The
// paper fixes keep-alive long enough to never evict during a run; this
// ablation shows how much of everyone's memory story that choice carries,
// and that FaaSBatch's advantage survives aggressive eviction.
func RunAblationKeepAlive(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	keepAlives := []time.Duration{5 * time.Second, 30 * time.Second, 10 * time.Minute}
	for _, p := range []PolicyKind{PolicyVanilla, PolicyFaaSBatch} {
		tbl := NewTable(
			fmt.Sprintf("Ablation — keep-alive sweep, %v, I/O workload", p),
			"keep-alive", "containers", "evictions", "avg mem (MB)", "cold-start p99", "total mean")
		for _, ka := range keepAlives {
			ncfg := node.DefaultConfig()
			ncfg.KeepAlive = ka
			res, err := Run(Config{Policy: p, Trace: tr, Seed: opts.Seed, Node: ncfg})
			if err != nil {
				return fmt.Errorf("keep-alive %v/%v: %w", p, ka, err)
			}
			cold := res.CDF(ColdStart)
			tot := res.CDF(EndToEnd)
			tbl.AddRow(ka, res.TotalContainers, res.Evictions,
				fmt.Sprintf("%.0f", res.AvgMemBytes/(1<<20)),
				cold.P(0.99).Round(time.Millisecond), tot.Mean().Round(time.Millisecond))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAblationBurstiness compares bursty versus steady (Poisson) arrivals
// of the same volume. FaaSBatch's edge comes from temporal locality: on
// the bursty trace it folds spikes into few containers, while under
// steady arrivals the window rarely holds more than a couple of
// invocations and the gap to Vanilla narrows — an honest boundary of the
// paper's claim.
func RunAblationBurstiness(w io.Writer, opts Options) error {
	bcfg := trace.DefaultBurstConfig(workload.IO)
	bcfg.Seed = opts.Seed
	bcfg.N = opts.scaled(bcfg.N) / 2
	bursty, err := trace.SynthesizeBurst(bcfg)
	if err != nil {
		return err
	}
	steady, err := trace.SynthesizeSteady(bcfg)
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		label string
		tr    trace.Trace
	}{{"bursty (paper replay)", bursty}, {"steady (Poisson, same volume)", steady}} {
		tbl := NewTable(
			fmt.Sprintf("Ablation — arrival pattern: %s", tc.label),
			"policy", "containers", "inv/container", "total p50", "total p99")
		for _, p := range []PolicyKind{PolicyVanilla, PolicyFaaSBatch} {
			res, err := Run(Config{Policy: p, Trace: tc.tr, Seed: opts.Seed})
			if err != nil {
				return fmt.Errorf("burstiness %s/%v: %w", tc.label, p, err)
			}
			tot := res.CDF(EndToEnd)
			tbl.AddRow(res.Policy, res.TotalContainers,
				fmt.Sprintf("%.1f", float64(tc.tr.Len())/float64(res.TotalContainers)),
				tot.P(0.5).Round(time.Millisecond), tot.P(0.99).Round(time.Millisecond))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RunExtensionCluster reproduces the scale-out extension: the CPU burst
// on growing FaaSBatch fleets and the routing-strategy trade-off
// (function affinity preserves batching locality; per-invocation
// balancing fragments windows).
func RunExtensionCluster(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.CPUIntensive, opts)
	if err != nil {
		return err
	}
	// The paper's CPU benchmark is one deployed function; a fleet only
	// matters with several. Split the load across 16 hot functions with
	// deterministic random assignment.
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := range tr.Invocations {
		tr.Invocations[i].Fn = fmt.Sprintf("fn%02d", rng.Intn(16))
	}
	tbl := NewTable(
		"Extension — FaaSBatch cluster scale-out (fn-affinity routing)",
		"nodes", "containers", "imbalance", "total p50", "total p99")
	for _, nodes := range []int{1, 2, 4, 8} {
		res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: opts.Seed, Nodes: nodes})
		if err != nil {
			return fmt.Errorf("cluster %d nodes: %w", nodes, err)
		}
		tot := res.CDF(EndToEnd)
		tbl.AddRow(nodes, res.TotalContainers, fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.5).Round(time.Millisecond), tot.P(0.99).Round(time.Millisecond))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	tbl2 := NewTable(
		"Extension — routing strategies on 4 nodes",
		"balancing", "containers", "imbalance", "total p99")
	for _, bal := range []cluster.Balancing{cluster.FnAffinity, cluster.LeastLoaded, cluster.RoundRobin} {
		res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: opts.Seed, Nodes: 4, Balancing: bal})
		if err != nil {
			return fmt.Errorf("cluster %v: %w", bal, err)
		}
		tot := res.CDF(EndToEnd)
		tbl2.AddRow(bal.String(), res.TotalContainers, fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.99).Round(time.Millisecond))
	}
	return tbl2.Render(w)
}

// RunExtensionAdaptive overlays the adaptive dispatch controller on the
// paper's fixed window: on the bursty I/O trace with each swept interval
// as the adaptive window's cap, then on sparse traffic, where the idle
// fast path (a lone arrival at an idle function dispatches at once) is
// the whole story.
func RunExtensionAdaptive(w io.Writer, opts Options) error {
	bursty, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	run := func(tr trace.Trace, adaptive bool, interval time.Duration) (*Result, error) {
		res, err := Run(Config{
			Policy:           PolicyFaaSBatch,
			Trace:            tr,
			Seed:             opts.Seed,
			Interval:         interval,
			AdaptiveDispatch: adaptive,
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive=%v %v: %w", adaptive, interval, err)
		}
		return res, nil
	}
	tbl := NewTable(
		"Extension — fixed vs adaptive windows on the bursty I/O trace (cap = interval)",
		"interval", "fixed grp", "adaptive grp", "fixed sched p90", "adaptive sched p90", "fast-paths")
	for _, interval := range SweepIntervals {
		fixed, err := run(bursty, false, interval)
		if err != nil {
			return err
		}
		adaptive, err := run(bursty, true, interval)
		if err != nil {
			return err
		}
		tbl.AddRow(interval,
			fmt.Sprintf("%.1f", fixed.Batch.AvgGroupSize()),
			fmt.Sprintf("%.1f", adaptive.Batch.AvgGroupSize()),
			fixed.CDF(Scheduling).P(0.9).Round(time.Millisecond),
			adaptive.CDF(Scheduling).P(0.9).Round(time.Millisecond),
			adaptive.Batch.FastPathDispatches)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	scfg := trace.DefaultBurstConfig(workload.IO)
	scfg.Seed = opts.Seed
	scfg.N = opts.scaled(120)
	sparse, err := trace.SynthesizeSteady(scfg)
	if err != nil {
		return err
	}
	stbl := NewTable(
		fmt.Sprintf("Extension — sparse traffic (%d Poisson arrivals / %v, 200ms window)", sparse.Len(), sparse.Span),
		"mode", "sched p50", "sched p99", "avg group", "fast-paths")
	for _, adaptive := range []bool{false, true} {
		res, err := run(sparse, adaptive, 200*time.Millisecond)
		if err != nil {
			return err
		}
		mode := "fixed"
		if adaptive {
			mode = "adaptive"
		}
		sched := res.CDF(Scheduling)
		stbl.AddRow(mode,
			sched.P(0.5).Round(time.Millisecond),
			sched.P(0.99).Round(time.Millisecond),
			fmt.Sprintf("%.2f", res.Batch.AvgGroupSize()),
			res.Batch.FastPathDispatches)
	}
	return stbl.Render(w)
}
