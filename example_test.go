package faasbatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	faasbatch "faasbatch"
	"faasbatch/internal/metrics"
)

// ExampleNewPlatform shows the live runtime: register a function, invoke
// it, and read the latency decomposition.
func ExampleNewPlatform() {
	cfg := faasbatch.DefaultPlatformConfig()
	cfg.DispatchInterval = 10 * time.Millisecond
	cfg.ColdStart = 0
	p, err := faasbatch.NewPlatform(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer func() { _ = p.Close() }()

	_ = p.Register("double", func(_ context.Context, inv *faasbatch.Invocation) (any, error) {
		var n int
		if err := json.Unmarshal(inv.Payload, &n); err != nil {
			return nil, err
		}
		return 2 * n, nil
	})

	res, err := p.Invoke(context.Background(), "double", json.RawMessage("21"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Value)
	// Output: 42
}

// ExampleRunExperiment reproduces a miniature version of the paper's I/O
// evaluation: FaaSBatch needs far fewer containers than Vanilla on the
// same burst, and the multiplexer keeps execution in the 10–100 ms band.
func ExampleRunExperiment() {
	cfg := faasbatch.DefaultBurstConfig(faasbatch.IO)
	cfg.N = 100
	cfg.Span = 10 * time.Second
	tr, err := faasbatch.SynthesizeBurst(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, policy := range []faasbatch.PolicyKind{faasbatch.PolicyVanilla, faasbatch.PolicyFaaSBatch} {
		res, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
			Policy: policy,
			Trace:  tr,
			Seed:   1,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		execP50 := res.CDF(metrics.Execution).P(0.5)
		fmt.Printf("%-9s containers=%d exec-p50=%v\n", res.Policy, res.TotalContainers, execP50)
	}
	// Output:
	// vanilla   containers=72 exec-p50=83ms
	// faasbatch containers=2 exec-p50=17ms
}

// ExampleRunExperiment_cluster replays a burst on a two-node fleet:
// function affinity keeps the trace's one function, and so its batches,
// on one node.
func ExampleRunExperiment_cluster() {
	cfg := faasbatch.DefaultBurstConfig(faasbatch.CPUIntensive)
	cfg.N = 60
	cfg.Span = 5 * time.Second
	tr, err := faasbatch.SynthesizeBurst(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
		Policy:    faasbatch.PolicyFaaSBatch,
		Trace:     tr,
		Seed:      1,
		Nodes:     2,
		Balancing: faasbatch.FnAffinity,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d invocations on %d nodes, containers per node %v\n", len(res.Records), len(res.ContainersPerNode), res.ContainersPerNode)
	// Output: 60 invocations on 2 nodes, containers per node [3 0]
}
