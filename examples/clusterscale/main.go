// Cluster scale-out: FaaSBatch beyond the paper's single worker VM. A
// fleet of nodes serves a heavy multi-function burst under three routing
// strategies; function affinity preserves batching locality (fewest
// containers), per-invocation balancing fragments windows across nodes.
//
//	go run ./examples/clusterscale
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/experiment"
	"faasbatch/internal/metrics"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterscale:", err)
		os.Exit(1)
	}
}

func run() error {
	// A 4x paper-scale burst: 3200 CPU-intensive invocations in one
	// minute across 16 hot functions.
	cfg := trace.DefaultBurstConfig(workload.CPUIntensive)
	cfg.N = 3200
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		return err
	}
	// Give each hot function its own identity so routing matters; the
	// assignment is random so round-robin cannot accidentally act as
	// per-function affinity.
	rng := rand.New(rand.NewSource(7))
	for i := range tr.Invocations {
		tr.Invocations[i].Fn = fmt.Sprintf("fn%02d", rng.Intn(16))
	}

	fmt.Printf("replaying %d invocations (16 functions, 1 minute) on growing fleets ...\n\n", tr.Len())
	tbl := metrics.NewTable(
		"Scale-out under fn-affinity routing",
		"nodes", "containers", "imbalance", "total p50", "total p99", "makespan")
	for _, nodes := range []int{1, 2, 4, 8} {
		res, err := experiment.Run(experiment.Config{
			Policy: experiment.PolicyFaaSBatch, Trace: tr, Seed: 13, Nodes: nodes,
		})
		if err != nil {
			return err
		}
		tot := res.CDF(metrics.EndToEnd)
		tbl.AddRow(nodes, res.TotalContainers,
			fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.5).Round(time.Millisecond), tot.P(0.99).Round(time.Millisecond),
			res.Makespan.Round(time.Millisecond))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	tbl2 := metrics.NewTable(
		"Routing strategies on 4 nodes (batching locality vs spreading)",
		"balancing", "containers", "imbalance", "total p50", "total p99")
	for _, bal := range []cluster.Balancing{cluster.FnAffinity, cluster.LeastLoaded, cluster.RoundRobin} {
		res, err := experiment.Run(experiment.Config{
			Policy: experiment.PolicyFaaSBatch, Trace: tr, Seed: 13, Nodes: 4, Balancing: bal,
		})
		if err != nil {
			return err
		}
		tot := res.CDF(metrics.EndToEnd)
		tbl2.AddRow(bal.String(), res.TotalContainers,
			fmt.Sprintf("%.2f", res.Imbalance()),
			tot.P(0.5).Round(time.Millisecond), tot.P(0.99).Round(time.Millisecond))
	}
	if err := tbl2.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nAffinity keeps each function's windows on one node — FaaSBatch's")
	fmt.Println("one-container-per-group invariant survives the scale-out.")
	return nil
}
