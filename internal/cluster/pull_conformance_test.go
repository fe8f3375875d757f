package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/router"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// pullConformanceConfig is the decision-core tuning both drivers
// resolve identically: small batches and per-worker capacity so the
// schedule actually queues, plus a bound that never sheds it.
func pullConformanceConfig() pullsched.Config {
	return pullsched.Config{
		Shards:     4,
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

// pullOutage is the mid-run worker failure window shared by the sim run
// and (via the recorded event log) the live replay.
const (
	pullOutageStart = 200 * time.Millisecond
	pullOutageEnd   = 450 * time.Millisecond
	pullOutageNode  = 1
)

// runSimPull replays the skewed schedule through the simulated pull
// driver with a mid-run node outage, returning the recorded core-input
// event log and the resulting grant log.
func runSimPull(t *testing.T) ([]PullEvent, []pullsched.Grant, pullsched.Stats) {
	t.Helper()
	eng := sim.New(7)
	cfg := testClusterConfig(4, Pull)
	pcfg := pullConformanceConfig()
	cfg.Pull = &pcfg
	cl, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	cl.SetPullEventRecording(true)
	sched := pullConformanceSchedule()
	spec := workload.IOSpec("conformance")
	done, failed := 0, 0
	for i, a := range sched {
		i, a := i, a
		eng.Schedule(a.off, func() {
			s := spec
			s.Name = a.fn
			cl.Submit(fnruntime.NewInvocation(int64(i), s, eng.Now()), func(inv *fnruntime.Invocation) {
				done++
				if inv.Rec.Failed {
					failed++
				}
			})
		})
	}
	eng.Schedule(pullOutageStart, func() { _ = cl.SetDown(pullOutageNode, true) })
	eng.Schedule(pullOutageEnd, func() { _ = cl.SetDown(pullOutageNode, false) })
	eng.RunUntil(sim.Time(5 * time.Second))
	// Zero lost across the outage: every submission completed, none as
	// a shed or failure.
	if done != len(sched) || failed != 0 {
		t.Fatalf("sim pull run completed %d/%d (failed %d)", done, len(sched), failed)
	}
	events, grants, stats := cl.PullEvents(), cl.PullGrants(), cl.PullStats()
	if err := cl.Close(); err != nil {
		t.Fatalf("cluster.Close: %v", err)
	}
	return events, grants, stats
}

// replayLivePull feeds the recorded sim event log through the live
// router's pull policy at the same virtual offsets — the same core
// calls the request path makes, minus the goroutines and the wall
// clock — and returns its grant log.
func replayLivePull(t *testing.T, events []PullEvent) []pullsched.Grant {
	t.Helper()
	specs := make([]router.WorkerSpec, 4)
	for i := range specs {
		specs[i] = router.WorkerSpec{ID: NodeMember(i), URL: fmt.Sprintf("http://conformance.invalid/%d", i)}
	}
	pcfg := pullConformanceConfig()
	rt, err := router.New(router.Config{Workers: specs, Policy: router.PolicyPull, Pull: &pcfg})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	defer func() { _ = rt.Close() }()
	for _, ev := range events {
		switch ev.Kind {
		case "enqueue":
			if _, shed := rt.PullEnqueue(ev.ID, ev.Fn, ev.Off); shed {
				t.Fatalf("live replay shed id %d (%s) the sim admitted", ev.ID, ev.Fn)
			}
		case "complete":
			rt.PullComplete(ev.ID, ev.Off)
		case "down":
			rt.PullSetWorker(NodeMember(ev.Worker), false, ev.Off)
		case "up":
			rt.PullSetWorker(NodeMember(ev.Worker), true, ev.Off)
		default:
			t.Fatalf("unknown pull event kind %q", ev.Kind)
		}
	}
	return rt.PullGrants()
}

// TestPullSimLiveConformance is the tentpole guarantee for the pull
// policy: one skewed schedule (with a mid-run worker outage) run
// through the simulated cluster driver, then replayed through the live
// router driver, produces the identical lease-grant sequence — worker
// choice, batch composition, ordering, and requeue flags all match.
func TestPullSimLiveConformance(t *testing.T) {
	events, simGrants, stats := runSimPull(t)
	liveGrants := replayLivePull(t, events)
	if len(simGrants) == 0 {
		t.Fatal("sim run produced no grants")
	}
	if !reflect.DeepEqual(simGrants, liveGrants) {
		n := len(simGrants)
		if len(liveGrants) < n {
			n = len(liveGrants)
		}
		for i := 0; i < n; i++ {
			if simGrants[i] != liveGrants[i] {
				t.Fatalf("grant %d diverges:\nsim:  %+v\nlive: %+v (sim %d grants, live %d)",
					i, simGrants[i], liveGrants[i], len(simGrants), len(liveGrants))
			}
		}
		t.Fatalf("grant logs diverge in length: sim %d, live %d", len(simGrants), len(liveGrants))
	}
	// Non-vacuity: the schedule must exercise the queue (grants beyond
	// immediate capacity), the outage (a down/up pair) and quiesce.
	var downs, ups int
	for _, ev := range events {
		switch ev.Kind {
		case "down":
			downs++
		case "up":
			ups++
		}
	}
	if downs == 0 || ups == 0 {
		t.Fatalf("schedule never exercised the outage: %d downs, %d ups", downs, ups)
	}
	if stats.Queued != 0 || stats.Leases != 0 {
		t.Fatalf("sim core did not quiesce: %+v", stats)
	}
	if stats.Enqueued != stats.Completed+stats.Aborted {
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
