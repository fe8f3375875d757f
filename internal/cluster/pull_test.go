package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// pullConformanceConfig is the decision-core tuning of the outage replay:
// small batches and per-worker capacity so the schedule actually queues,
// plus a bound that never sheds it.
func pullConformanceConfig() pullsched.Config {
	return pullsched.Config{
		BatchSize:  2,
		Capacity:   2,
		QueueDepth: 256,
	}
}

// pullConformanceSchedule is a 90/10-skewed arrival sequence: the hot
// function dominates while three cold functions trickle, the traffic
// shape pull scheduling exists for. Offsets avoid the outage instants.
func pullConformanceSchedule() []conformanceArrival {
	var out []conformanceArrival
	cold := []string{"cold-a", "cold-b", "cold-c"}
	for i := 0; i < 80; i++ {
		fn := "hot"
		if i%10 == 9 {
			fn = cold[(i/10)%len(cold)]
		}
		out = append(out, conformanceArrival{
			off: time.Duration(3+i*7) * time.Millisecond,
			fn:  fn,
		})
	}
	return out
}

// pullOutage is the mid-run worker failure window.
const (
	pullOutageStart = 200 * time.Millisecond
	pullOutageEnd   = 450 * time.Millisecond
	pullOutageNode  = 1
)

// TestPullSimQuiescesAcrossOutage replays the skewed schedule through the
// simulated pull driver with a mid-run node outage: every submission
// completes, none shed or failed (zero lost across the outage), the
// victim leased nothing while it was down, and the core quiesces with
// its conservation identity intact. That the live router's driver turns
// the same enqueues, acks and membership flips into the same grant log
// holds because both feed one pullsched.Core, whose determinism
// TestDeterministicReplay pins.
func TestPullSimQuiescesAcrossOutage(t *testing.T) {
	eng := sim.New(7)
	cfg := testClusterConfig(4, Pull)
	pcfg := pullConformanceConfig()
	cfg.Pull = &pcfg
	cl, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	sched := pullConformanceSchedule()
	spec := workload.IOSpec("conformance")
	done, failed := 0, 0
	for i, a := range sched {
		eng.Schedule(a.off, func() {
			s := spec
			s.Name = a.fn
			cl.Submit(fnruntime.NewInvocation(int64(i), s, eng.Now()), func(inv *fnruntime.Invocation) {
				done++
				if inv.Failed {
					failed++
				}
			})
		})
	}
	var routedAtDown, routedAtUp int
	eng.Schedule(pullOutageStart, func() {
		_ = cl.SetDown(pullOutageNode, true)
		routedAtDown = cl.RoutedPerNode()[pullOutageNode]
	})
	eng.Schedule(pullOutageEnd, func() {
		routedAtUp = cl.RoutedPerNode()[pullOutageNode]
		_ = cl.SetDown(pullOutageNode, false)
	})
	eng.RunUntil(sim.Time(5 * time.Second))
	if done != len(sched) || failed != 0 {
		t.Fatalf("sim pull run completed %d/%d (failed %d)", done, len(sched), failed)
	}
	// Non-vacuity: the outage must bite (the victim served before it and
	// was granted nothing during it) and the schedule must queue.
	if routedAtDown == 0 || routedAtUp != routedAtDown {
		t.Fatalf("victim routed %d before the outage, %d by its end: want > 0 and unchanged", routedAtDown, routedAtUp)
	}
	stats := cl.PullStats()
	if err := cl.Close(); err != nil {
		t.Fatalf("cluster.Close: %v", err)
	}
	if stats.Queued != 0 || stats.Leases != 0 {
		t.Fatalf("sim core did not quiesce: %+v", stats)
	}
	if stats.Enqueued != stats.Completed+stats.Aborted || stats.Granted != uint64(len(sched)) {
		t.Fatalf("conservation violated: %+v", stats)
	}
	if stats.Shed != 0 {
		t.Fatalf("schedule shed %d arrivals; raise QueueDepth to keep the replay lossless", stats.Shed)
	}
}

// TestPullSpreadsSkewedLoad pins the late-binding claims: under a 90/10
// skew the hash picker funnels the hot function into one node while pull
// late-binds it across the fleet, so pull's per-node routed spread must
// be materially tighter — and once the hot function's CPU demand exceeds
// its hash owner (the second case: fib(30) at 200/s, ~55 cores of demand
// against one 32-core worker in a fleet of eight, with a worker failing
// mid-run), pull must also cut the tail latency and neither policy may
// lose an invocation.
func TestPullSpreadsSkewedLoad(t *testing.T) {
	type arrival struct {
		off  time.Duration
		spec workload.Spec
	}
	io := workload.IOSpec("skew")
	var light []arrival
	for _, a := range pullConformanceSchedule() {
		s := io
		s.Name = a.fn
		light = append(light, arrival{off: a.off, spec: s})
	}
	hot, err := workload.FibSpec(30)
	if err != nil {
		t.Fatalf("FibSpec: %v", err)
	}
	hot.Name = "hot"
	cold, err := workload.FibSpec(24)
	if err != nil {
		t.Fatalf("FibSpec: %v", err)
	}
	var saturating []arrival
	for i, off := 0, 3*time.Millisecond; off < 12*time.Second; i, off = i+1, off+5*time.Millisecond {
		s := hot
		if i%10 == 9 {
			s = cold
			s.Name = fmt.Sprintf("cold-%d", (i/10)%8)
		}
		saturating = append(saturating, arrival{off: off, spec: s})
	}
	lightPull := pullConformanceConfig()
	cases := []struct {
		name     string
		cfg      Config
		pull     pullsched.Config
		sched    []arrival
		outage   [2]time.Duration // victim node 1 down over [from, to); zero: none
		horizon  time.Duration
		beatsP99 bool
	}{
		{name: "light-io", cfg: testClusterConfig(4, ConsistentHash), pull: lightPull,
			sched: light, horizon: 5 * time.Second},
		{name: "cpu-saturating", cfg: Config{Nodes: 8, Balancing: ConsistentHash},
			pull:  pullsched.Config{QueueDepth: 1 << 16, Capacity: 32},
			sched: saturating, outage: [2]time.Duration{4 * time.Second, 8 * time.Second},
			horizon: 20 * time.Second, beatsP99: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(bal Balancing) (routed []int, p99 time.Duration) {
				eng := sim.New(7)
				cfg := tc.cfg
				cfg.Balancing = bal
				if bal == Pull {
					pcfg := tc.pull
					cfg.Pull = &pcfg
				}
				cl, err := New(eng, cfg)
				if err != nil {
					t.Fatalf("cluster.New(%v): %v", bal, err)
				}
				var lat []time.Duration
				for i, a := range tc.sched {
					eng.Schedule(a.off, func() {
						cl.Submit(fnruntime.NewInvocation(int64(i), a.spec, eng.Now()), func(*fnruntime.Invocation) {
							lat = append(lat, eng.Now().Duration()-a.off)
						})
					})
				}
				if tc.outage[1] > 0 {
					eng.Schedule(tc.outage[0], func() { _ = cl.SetDown(1, true) })
					eng.Schedule(tc.outage[1], func() { _ = cl.SetDown(1, false) })
				}
				eng.RunUntil(sim.Time(tc.horizon))
				if len(lat) != len(tc.sched) {
					t.Fatalf("%v run completed %d/%d: invocations lost", bal, len(lat), len(tc.sched))
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				routed = cl.RoutedPerNode()
				_ = cl.Close()
				return routed, lat[len(lat)*99/100]
			}
			spread := func(routed []int) int {
				min, max := routed[0], routed[0]
				for _, n := range routed[1:] {
					if n < min {
						min = n
					}
					if n > max {
						max = n
					}
				}
				return max - min
			}
			hashRouted, hashP99 := run(ConsistentHash)
			pullRouted, pullP99 := run(Pull)
			if spread(hashRouted) <= spread(pullRouted) {
				t.Fatalf("pull should spread skewed load tighter than hash: hash %v, pull %v", hashRouted, pullRouted)
			}
			if tc.beatsP99 && pullP99 >= hashP99 {
				t.Fatalf("pull should cut the skewed tail: pull p99 %v, hash p99 %v", pullP99, hashP99)
			}
		})
	}
}

// TestPullCallbackReentryKeepsFreedGrants: the submitter's completion
// callback runs after an ack and before the grants that ack freed are
// dispatched, and whatever it does to the cluster calls the core again —
// here it marks a node back up, which grants the queue's next item to
// it. The grants held for the outer dispatch must survive that call:
// every invocation runs exactly once.
func TestPullCallbackReentryKeepsFreedGrants(t *testing.T) {
	eng := sim.New(7)
	cfg := testClusterConfig(2, Pull)
	cfg.Pull = &pullsched.Config{Capacity: 1, BatchSize: 1}
	cl, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	if err := cl.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	runs := map[int64]int{}
	for id := int64(1); id <= 3; id++ { // 1 runs on node 0, 2 and 3 queue
		cl.Submit(fnruntime.NewInvocation(id, workload.IOSpec("fn"), eng.Now()), func(inv *fnruntime.Invocation) {
			runs[inv.ID]++
			if inv.ID == 1 {
				// 1's ack granted 2 to node 0; waking node 1 grants it 3.
				if err := cl.SetDown(1, false); err != nil {
					t.Error(err)
				}
			}
		})
	}
	eng.RunUntil(sim.Time(time.Minute))
	for id := int64(1); id <= 3; id++ {
		if runs[id] != 1 {
			t.Fatalf("invocation %d completed %d times: %v", id, runs[id], runs)
		}
	}
	if st := cl.PullStats(); st.Queued != 0 || st.Leases != 0 || st.Granted != 3 {
		t.Fatalf("core did not quiesce: %+v", st)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("cluster.Close: %v", err)
	}
}
