package cluster_test

import (
	"testing"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/experiment"
	"faasbatch/internal/node"
	"faasbatch/internal/trace"
)

// Whole-trace replays on a fleet go through the one trace replay,
// experiment.Run with Nodes and Balancing set.

// testTrace builds a small multi-function burst.
func testTrace(n int, fns int) trace.Trace {
	tr := trace.Trace{Name: "cluster-test", Span: 10 * time.Second}
	for i := 0; i < n; i++ {
		tr.Invocations = append(tr.Invocations, trace.Invocation{
			Offset: time.Duration(i*25) * time.Millisecond,
			Fn:     string(rune('a' + i%fns)),
			FibN:   22 + i%4,
		})
	}
	return tr
}

// replay runs tr under FaaSBatch on a fleet of light, never-evicting
// nodes.
func replay(t *testing.T, tr trace.Trace, nodes int, bal cluster.Balancing) *experiment.Result {
	t.Helper()
	ncfg := node.DefaultConfig()
	ncfg.Cores = 8
	ncfg.ContainerInitCPUWork = 0
	ncfg.CreateCPUWork = 100 * time.Millisecond
	ncfg.KeepAlive = time.Hour
	res, err := experiment.Run(experiment.Config{
		Policy:    experiment.PolicyFaaSBatch,
		Trace:     tr,
		Seed:      1,
		Nodes:     nodes,
		Balancing: bal,
		Node:      ncfg,
	})
	if err != nil {
		t.Fatalf("%d nodes, %v: %v", nodes, bal, err)
	}
	return res
}

func TestReplayCompletesEverything(t *testing.T) {
	for _, bal := range []cluster.Balancing{cluster.FnAffinity, cluster.LeastLoaded, cluster.RoundRobin} {
		tr := testTrace(60, 4)
		res := replay(t, tr, 3, bal)
		if len(res.Records) != tr.Len() {
			t.Errorf("%v: %d records, want %d", bal, len(res.Records), tr.Len())
		}
		if res.TotalContainers == 0 || res.Makespan <= 0 {
			t.Errorf("%v: empty result %+v", bal, res)
		}
		if len(res.ContainersPerNode) != 3 {
			t.Errorf("%v: per-node breakdown has %d nodes, want 3", bal, len(res.ContainersPerNode))
		}
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := experiment.Run(experiment.Config{Policy: experiment.PolicyFaaSBatch, Nodes: 2}); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := testTrace(4, 1)
	if _, err := experiment.Run(experiment.Config{Policy: experiment.PolicyFaaSBatch, Trace: tr, Nodes: 2, Balancing: 99}); err == nil {
		t.Fatal("unknown balancing accepted")
	}
}

func TestAffinityPreservesBatchingLocality(t *testing.T) {
	// One hot function on a 4-node cluster: affinity keeps all its
	// batches on one node (few containers); round-robin fragments every
	// window across the fleet (more containers).
	tr := testTrace(80, 1) // single function
	aff := replay(t, tr, 4, cluster.FnAffinity)
	rr := replay(t, tr, 4, cluster.RoundRobin)
	if aff.TotalContainers >= rr.TotalContainers {
		t.Fatalf("affinity containers %d not fewer than round-robin %d",
			aff.TotalContainers, rr.TotalContainers)
	}
	// Affinity: one node hosts everything -> maximum imbalance (= #nodes
	// for a single function); round-robin spreads evenly.
	if aff.Imbalance() <= rr.Imbalance() {
		t.Fatalf("affinity imbalance %.2f not above round-robin %.2f (single hot function)",
			aff.Imbalance(), rr.Imbalance())
	}
}

func TestClusterScalingReducesContention(t *testing.T) {
	// A heavy burst on 1 node vs 4 nodes: more nodes must not increase
	// tail latency, and usually improve it.
	tr := testTrace(120, 8)
	one := replay(t, tr, 1, cluster.FnAffinity).CDF(experiment.EndToEnd).P(0.99)
	four := replay(t, tr, 4, cluster.FnAffinity).CDF(experiment.EndToEnd).P(0.99)
	if four > one {
		t.Fatalf("p99 with 4 nodes (%v) worse than 1 node (%v)", four, one)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	var r experiment.Result
	if r.Imbalance() != 0 {
		t.Error("empty result imbalance should be 0")
	}
	r.ContainersPerNode = []int{0, 0}
	if r.Imbalance() != 0 {
		t.Error("zero-container imbalance should be 0")
	}
	r.ContainersPerNode = []int{2, 2}
	if r.Imbalance() != 1 {
		t.Errorf("balanced imbalance = %v, want 1", r.Imbalance())
	}
}

// TestSpecsForRejectsBadFib checks a fleet replay maps its trace through
// the shared trace-to-spec mapper: an out-of-range fib N fails the run,
// and a storage function runs as an I/O body that builds its client.
func TestSpecsForRejectsBadFib(t *testing.T) {
	bad := trace.Trace{Invocations: []trace.Invocation{{Fn: "f", FibN: 5}}}
	if _, err := experiment.Run(experiment.Config{Policy: experiment.PolicyFaaSBatch, Trace: bad, Nodes: 2}); err == nil {
		t.Fatal("invalid fib N accepted")
	}
	io := trace.Trace{Invocations: []trace.Invocation{{Fn: "s3"}}}
	res := replay(t, io, 2, cluster.FnAffinity)
	if res.Runner.ClientsBuilt != 1 {
		t.Fatalf("clients built = %d, want the I/O body's one", res.Runner.ClientsBuilt)
	}
}

// TestConsistentHashReplay runs a full replay under the ring policy and
// checks it preserves locality like FnAffinity does (few containers for a
// single hot function).
func TestConsistentHashReplay(t *testing.T) {
	tr := testTrace(80, 1)
	res := replay(t, tr, 4, cluster.ConsistentHash)
	rr := replay(t, tr, 4, cluster.RoundRobin)
	if res.TotalContainers >= rr.TotalContainers {
		t.Fatalf("consistent-hash containers %d not fewer than round-robin %d",
			res.TotalContainers, rr.TotalContainers)
	}
	if len(res.Records) != tr.Len() {
		t.Fatalf("records = %d, want %d", len(res.Records), tr.Len())
	}
}
