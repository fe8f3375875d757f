package faasbatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	faasbatch "faasbatch"
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

// Example_batching shows the Invoke Mapper and the Inline-Parallel
// Producer on the live platform: twelve concurrent calls that arrive
// within one dispatch window form one group, and the whole group expands
// inside a single container.
func Example_batching() {
	// The fixed window's first boundary falls one interval (200 ms) after
	// New, so calls fired right away all land in the first window.
	p, err := faasbatch.NewPlatform(faasbatch.DefaultPlatformConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer func() { _ = p.Close() }()
	_ = p.Register("fib", func(_ context.Context, inv *faasbatch.Invocation) (any, error) {
		var n int
		if err := json.Unmarshal(inv.Payload, &n); err != nil {
			return nil, err
		}
		a, b := 0, 1
		for i := 0; i < n; i++ {
			a, b = b, a+b
		}
		return a, nil
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	containers := map[string]bool{}
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Invoke(context.Background(), "fib", json.RawMessage("30"))
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			mu.Lock()
			containers[res.ContainerID] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	st := p.Stats()
	fmt.Printf("%d invocations, %d group, %d container created, %d used\n",
		st.Invocations, st.Groups, st.ContainersCreated, len(containers))
	// Output: 12 invocations, 1 group, 1 container created, 1 used
}

// closingClient stands in for a storage client holding a socket: the
// platform closes every cached client that implements io.Closer when it
// leaves the cache.
type closingClient struct{ closed *atomic.Int64 }

func (c closingClient) Close() error {
	c.closed.Add(1)
	return nil
}

// ExampleResources shows the Resource Multiplexer (§III-D): 32 concurrent
// I/O invocations in one group each ask for the same storage client.
// Without the multiplexer every invocation builds its own; with it the
// group's container builds one and every other call shares it.
func ExampleResources() {
	for _, multiplex := range []bool{false, true} {
		cfg := faasbatch.DefaultPlatformConfig()
		cfg.ColdStart = 0
		cfg.Multiplex = multiplex
		p, err := faasbatch.NewPlatform(cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		var builds atomic.Int64
		_ = p.Register("s3func", func(ctx context.Context, inv *faasbatch.Invocation) (any, error) {
			_, _, err := inv.Resources.GetContext(ctx, "s3.client", "ACCESS_KEY", func() (any, int64, error) {
				builds.Add(1)
				return "S3_client", 15 << 20, nil
			})
			return nil, err
		})
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Invoke(context.Background(), "s3func", nil); err != nil {
					fmt.Println("error:", err)
				}
			}()
		}
		wg.Wait()
		_ = p.Close()
		fmt.Printf("multiplexer %-5v %2d client builds\n", multiplex, builds.Load())
	}
	// Output:
	// multiplexer false 32 client builds
	// multiplexer true   1 client builds
}

// ExampleMultiplexerConfig shows a bounded multiplexer cache: the outcome
// of each GetContext, handler-driven invalidation, eviction of the least
// recently used client once the bound is reached, and every cached
// client closed by the time the platform closes.
func ExampleMultiplexerConfig() {
	cfg := faasbatch.DefaultPlatformConfig()
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 0
	cfg.Multiplexer = faasbatch.MultiplexerConfig{
		MaxEntries: 2, // the third client evicts the least recently used
	}
	p, err := faasbatch.NewPlatform(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var closed atomic.Int64
	_ = p.Register("store", func(ctx context.Context, inv *faasbatch.Invocation) (any, error) {
		get := func(key string) faasbatch.Outcome {
			_, out, _ := inv.Resources.GetContext(ctx, "s3.client", key, func() (any, int64, error) {
				return closingClient{&closed}, 15 << 20, nil
			})
			return out
		}
		fmt.Printf("get a: %s, again: %s\n", get("a"), get("a"))
		inv.Resources.Invalidate("s3.client", "a")
		fmt.Printf("after Invalidate, get a: %s\n", get("a"))
		get("b")
		get("c") // evicts a
		return nil, nil
	})
	if _, err := p.Invoke(context.Background(), "store", nil); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := p.Stats().Multiplexer
	fmt.Printf("hits=%d misses=%d evictions=%d invalidations=%d\n",
		st.Hits, st.Misses, st.Evictions, st.Invalidations)
	fmt.Println("clients closed before Close:", closed.Load())
	_ = p.Close()
	fmt.Println("clients closed after Close:", closed.Load())
	// Output:
	// get a: miss, again: hit
	// after Invalidate, get a: miss
	// hits=1 misses=4 evictions=1 invalidations=1
	// clients closed before Close: 2
	// clients closed after Close: 4
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
		execP50 := res.CDF(faasbatch.Execution).P(0.5)
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
