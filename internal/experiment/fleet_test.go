package experiment

import (
	"testing"

	"faasbatch/internal/cluster"
	"faasbatch/internal/cpusched"
)

// runFleet builds cfg's fleet and runs it, returning both so a test can
// check the result against each node's own counters.
func runFleet(t *testing.T, cfg Config) (*fleet, *Result) {
	t.Helper()
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestTwoNodeSFSOwnsOneMLFQPerNode checks a two-node SFS fleet: each node
// runs its own MLFQ (a shared one would let one node's SFS rescale the
// other's quanta), and the runner counters sum over both nodes.
func TestTwoNodeSFSOwnsOneMLFQPerNode(t *testing.T) {
	f, res := runFleet(t, Config{Policy: PolicySFS, Trace: smallCPUTrace(t, 120), Seed: 1, Nodes: 2, Balancing: cluster.RoundRobin})
	nodes := f.cl.Nodes()
	m0, ok0 := nodes[0].Pool().Discipline().(*cpusched.MLFQ)
	m1, ok1 := nodes[1].Pool().Discipline().(*cpusched.MLFQ)
	if !ok0 || !ok1 {
		t.Fatalf("SFS nodes run %T and %T, want MLFQ on both", nodes[0].Pool().Discipline(), nodes[1].Pool().Discipline())
	}
	if m0 == m1 {
		t.Fatal("both nodes share one MLFQ")
	}
	if got := res.Runner.Executed; got != int64(len(res.Records)) {
		t.Fatalf("Runner.Executed = %d, want one per record (%d)", got, len(res.Records))
	}
	for i, r := range f.runners {
		if r.Stats().Executed == 0 {
			t.Fatalf("node %d executed nothing under round-robin", i)
		}
	}
}

// TestTwoNodeFaaSBatchSumsBatchStats checks a two-node FaaSBatch fleet
// reports the batching counters of both nodes, not of the first.
func TestTwoNodeFaaSBatchSumsBatchStats(t *testing.T) {
	f, res := runFleet(t, Config{Policy: PolicyFaaSBatch, Trace: smallCPUTrace(t, 120), Seed: 1, Nodes: 2, Balancing: cluster.RoundRobin})
	if len(f.batch) != 2 {
		t.Fatalf("%d FaaSBatch schedulers, want one per node", len(f.batch))
	}
	var groups, submitted int64
	for i, b := range f.batch {
		st := b.Stats()
		if st.Groups == 0 {
			t.Fatalf("node %d dispatched no group under round-robin", i)
		}
		groups += st.Groups
		submitted += st.Submitted
	}
	if res.Batch == nil || res.Batch.Groups != groups {
		t.Fatalf("Result.Batch = %+v, want Groups = %d (the per-node sum)", res.Batch, groups)
	}
	if res.Batch.Submitted != submitted || submitted != int64(len(res.Records)) {
		t.Fatalf("Result.Batch.Submitted = %d, per-node sum %d, records %d", res.Batch.Submitted, submitted, len(res.Records))
	}
}
