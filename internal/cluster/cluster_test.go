package cluster

import (
	"errors"
	"testing"
	"time"

	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
)

// testClusterConfig is a fleet of light, never-evicting nodes.
func testClusterConfig(nodes int, bal Balancing) Config {
	ncfg := node.DefaultConfig()
	ncfg.Cores = 8
	ncfg.ContainerInitCPUWork = 0
	ncfg.CreateCPUWork = 100 * time.Millisecond
	ncfg.KeepAlive = time.Hour
	ncfgs := make([]node.Config, nodes)
	for i := range ncfgs {
		ncfgs[i] = ncfg
	}
	return Config{Nodes: nodes, NodeConfigs: ncfgs, Balancing: bal}
}

func TestBalancingString(t *testing.T) {
	want := map[Balancing]string{FnAffinity: "fn-affinity", LeastLoaded: "least-loaded", RoundRobin: "round-robin", ConsistentHash: "consistent-hash"}
	for b, w := range want {
		if got := b.String(); got != w {
			t.Errorf("%d = %q, want %q", int(b), got, w)
		}
	}
	if Balancing(9).String() != "balancing(9)" {
		t.Error("unknown balancing string wrong")
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.New(1)
	if _, err := New(nil, testClusterConfig(1, FnAffinity)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, Config{Nodes: 0}); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg := testClusterConfig(1, Balancing(9))
	if _, err := New(eng, cfg); err == nil {
		t.Error("unknown balancing accepted")
	}
	cfg = testClusterConfig(2, FnAffinity)
	cfg.Scheduler = func(policy.Env) (policy.Scheduler, error) { return nil, errors.New("no scheduler") }
	if _, err := New(eng, cfg); err == nil {
		t.Error("scheduler constructor error swallowed")
	}
}

func TestFnAffinityPinsFunctionsToNodes(t *testing.T) {
	// With as many nodes as functions, affinity spreads functions 1:1 and
	// every function's containers stay on one node.
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(4, FnAffinity))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fns := []string{"a", "b", "c", "d"}
	for round := 0; round < 3; round++ {
		for _, fn := range fns {
			if got := cl.picker.pick(fn); got != cl.picker.affinity[fn] {
				t.Fatalf("pick(%s) = %d, want sticky %d", fn, got, cl.picker.affinity[fn])
			}
		}
	}
	seen := map[int]bool{}
	for _, fn := range fns {
		seen[cl.picker.affinity[fn]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("affinity used %d nodes for 4 functions, want 4", len(seen))
	}
}

func TestRoundRobinCycles(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, RoundRobin))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := cl.picker.pick("f"); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedFollowsInflight(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, LeastLoaded))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cl.picker.inflight[0] = 5
	cl.picker.inflight[1] = 1
	cl.picker.inflight[2] = 3
	if got := cl.picker.pick("f"); got != 1 {
		t.Fatalf("pick = %d, want least-loaded node 1", got)
	}
}

// TestLeastLoadedTieBreaksLowestIndex pins the documented determinism
// contract: with two (or more) equally loaded nodes, the dispatcher picks
// the lowest index, so identical runs reproduce identical placements.
func TestLeastLoadedTieBreaksLowestIndex(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, LeastLoaded))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// All idle: node 0 wins.
	if got := cl.picker.pick("f"); got != 0 {
		t.Fatalf("idle tie pick = %d, want 0", got)
	}
	// Nodes 1 and 2 tie below node 0: node 1 wins.
	cl.picker.inflight[0] = 4
	cl.picker.inflight[1] = 2
	cl.picker.inflight[2] = 2
	if got := cl.picker.pick("f"); got != 1 {
		t.Fatalf("two-way tie pick = %d, want lowest index 1", got)
	}
}

// TestFnAffinityFirstSightTieBreaksLowestIndex covers the pinning path:
// an unseen function on an evenly loaded fleet pins to the lowest index,
// and subsequent unseen functions spread by pin count.
func TestFnAffinityFirstSightTieBreaksLowestIndex(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(2, FnAffinity))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := cl.picker.pick("first"); got != 0 {
		t.Fatalf("first unseen fn pinned to %d, want 0", got)
	}
	// Node 0 now carries one pin; the next unseen function goes to 1.
	if got := cl.picker.pick("second"); got != 1 {
		t.Fatalf("second unseen fn pinned to %d, want 1", got)
	}
	// Another tie (one pin each): back to the lowest index.
	if got := cl.picker.pick("third"); got != 0 {
		t.Fatalf("third unseen fn pinned to %d, want 0", got)
	}
}

func TestConsistentHashDeterministicAndSticky(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, ConsistentHash))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fns := []string{"fib", "echo", "s3upload", "resize", "train"}
	first := make(map[string]int, len(fns))
	for _, fn := range fns {
		first[fn] = cl.picker.pick(fn)
	}
	// Sticky across repeats, load or not.
	cl.picker.inflight[first["fib"]] += 50
	for round := 0; round < 3; round++ {
		for _, fn := range fns {
			if got := cl.picker.pick(fn); got != first[fn] {
				t.Fatalf("round %d: pick(%s) = %d, want sticky %d", round, fn, got, first[fn])
			}
		}
	}
	// A second cluster agrees assignment-for-assignment.
	cl2, err := New(sim.New(99), testClusterConfig(3, ConsistentHash))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, fn := range fns {
		if got := cl2.picker.pick(fn); got != first[fn] {
			t.Fatalf("second cluster pick(%s) = %d, want %d", fn, got, first[fn])
		}
	}
}
