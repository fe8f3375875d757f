package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/metrics"
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
	tbl := metrics.NewTable(
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
		exec := res.CDF(metrics.Execution)
		tot := res.CDF(metrics.EndToEnd)
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
		tbl := metrics.NewTable(
			fmt.Sprintf("Ablation — keep-alive sweep, %v, I/O workload", p),
			"keep-alive", "containers", "evictions", "avg mem (MB)", "cold-start p99", "total mean")
		for _, ka := range keepAlives {
			ncfg := node.DefaultConfig()
			ncfg.KeepAlive = ka
			res, err := Run(Config{Policy: p, Trace: tr, Seed: opts.Seed, Node: ncfg})
			if err != nil {
				return fmt.Errorf("keep-alive %v/%v: %w", p, ka, err)
			}
			cold := res.CDF(metrics.ColdStart)
			tot := res.CDF(metrics.EndToEnd)
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
		tbl := metrics.NewTable(
			fmt.Sprintf("Ablation — arrival pattern: %s", tc.label),
			"policy", "containers", "inv/container", "total p50", "total p99")
		for _, p := range []PolicyKind{PolicyVanilla, PolicyFaaSBatch} {
			res, err := Run(Config{Policy: p, Trace: tc.tr, Seed: opts.Seed})
			if err != nil {
				return fmt.Errorf("burstiness %s/%v: %w", tc.label, p, err)
			}
			tot := res.CDF(metrics.EndToEnd)
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
	tbl := metrics.NewTable(
		"Extension — FaaSBatch cluster scale-out (fn-affinity routing)",
		"nodes", "containers", "imbalance", "total p50", "total p99")
	for _, nodes := range []int{1, 2, 4, 8} {
		res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: opts.Seed, Nodes: nodes})
		if err != nil {
			return fmt.Errorf("cluster %d nodes: %w", nodes, err)
		}
		tot := res.CDF(metrics.EndToEnd)
		tbl.AddRow(nodes, res.TotalContainers, fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.5).Round(time.Millisecond), tot.P(0.99).Round(time.Millisecond))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	tbl2 := metrics.NewTable(
		"Extension — routing strategies on 4 nodes",
		"balancing", "containers", "imbalance", "total p99")
	for _, bal := range []cluster.Balancing{cluster.FnAffinity, cluster.LeastLoaded, cluster.RoundRobin} {
		res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tr, Seed: opts.Seed, Nodes: 4, Balancing: bal})
		if err != nil {
			return fmt.Errorf("cluster %v: %w", bal, err)
		}
		tot := res.CDF(metrics.EndToEnd)
		tbl2.AddRow(bal.String(), res.TotalContainers, fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.99).Round(time.Millisecond))
	}
	return tbl2.Render(w)
}
