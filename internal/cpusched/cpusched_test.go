package cpusched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/obs/obstest"
	"faasbatch/internal/sim"
)

// tol is the timing tolerance allowed for floating-point rate arithmetic.
const tol = 10 * time.Microsecond

func within(t *testing.T, got, want sim.Time) {
	t.Helper()
	diff := got.Sub(want)
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Fatalf("time = %v, want %v (±%v)", got, want, tol)
	}
}

func newFairPool(t *testing.T, eng *sim.Engine, cores float64) *Pool {
	t.Helper()
	p, err := NewPool(eng, cores, FairShare{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestNewPoolValidation(t *testing.T) {
	eng := sim.New(1)
	if _, err := NewPool(eng, 0, FairShare{}); err == nil {
		t.Error("NewPool(cores=0) succeeded, want error")
	}
	if _, err := NewPool(eng, -1, FairShare{}); err == nil {
		t.Error("NewPool(cores=-1) succeeded, want error")
	}
	if _, err := NewPool(eng, 1, nil); err == nil {
		t.Error("NewPool(disc=nil) succeeded, want error")
	}
}

func TestSingleTaskRunsAtFullSpeed(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 4)
	g := p.NewGroup("c1", 0)
	var done sim.Time
	g.Submit(100*time.Millisecond, func() { done = eng.Now() })
	eng.Run()
	within(t, done, sim.Time(100*time.Millisecond))
}

func TestTwoTasksShareOneCore(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	var d1, d2 sim.Time
	g.Submit(100*time.Millisecond, func() { d1 = eng.Now() })
	g.Submit(100*time.Millisecond, func() { d2 = eng.Now() })
	eng.Run()
	within(t, d1, sim.Time(200*time.Millisecond))
	within(t, d2, sim.Time(200*time.Millisecond))
}

func TestUnequalTasksProcessorSharing(t *testing.T) {
	// One 100ms and one 300ms task on one core: the short one finishes at
	// 200ms (half speed), then the long one runs alone and finishes at
	// 100+300 = 400ms total.
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	var short, long sim.Time
	g.Submit(100*time.Millisecond, func() { short = eng.Now() })
	g.Submit(300*time.Millisecond, func() { long = eng.Now() })
	eng.Run()
	within(t, short, sim.Time(200*time.Millisecond))
	within(t, long, sim.Time(400*time.Millisecond))
}

func TestGroupCapLimitsThroughput(t *testing.T) {
	// Four 100ms tasks in a group capped at 1 core on a 4-core pool: the
	// cap forces serial-equivalent progress, so all finish at 400ms.
	eng := sim.New(1)
	p := newFairPool(t, eng, 4)
	g := p.NewGroup("capped", 1)
	var done sim.Time
	for i := 0; i < 4; i++ {
		g.Submit(100*time.Millisecond, func() { done = eng.Now() })
	}
	eng.Run()
	within(t, done, sim.Time(400*time.Millisecond))
}

func TestTwoGroupsSplitCoresFairly(t *testing.T) {
	// Two groups, two cores, two tasks each: every group gets one core,
	// so each group's pair of 100ms tasks completes at 200ms.
	eng := sim.New(1)
	p := newFairPool(t, eng, 2)
	var done [2]sim.Time
	for gi := 0; gi < 2; gi++ {
		gi := gi
		g := p.NewGroup("c", 0)
		g.Submit(100*time.Millisecond, func() {})
		g.Submit(100*time.Millisecond, func() { done[gi] = eng.Now() })
	}
	eng.Run()
	within(t, done[0], sim.Time(200*time.Millisecond))
	within(t, done[1], sim.Time(200*time.Millisecond))
}

func TestMaxMinLeftoverRedistribution(t *testing.T) {
	// Group A has 1 task (demand 1 core), group B has 3 tasks. On a 4-core
	// pool A takes 1 core and B's three tasks each get a full core, so all
	// 100ms tasks complete at 100ms.
	eng := sim.New(1)
	p := newFairPool(t, eng, 4)
	a := p.NewGroup("a", 0)
	b := p.NewGroup("b", 0)
	var last sim.Time
	a.Submit(100*time.Millisecond, func() { last = eng.Now() })
	for i := 0; i < 3; i++ {
		b.Submit(100*time.Millisecond, func() { last = eng.Now() })
	}
	eng.Run()
	within(t, last, sim.Time(100*time.Millisecond))
}

func TestLateArrivalSlowsRunningTask(t *testing.T) {
	// A 100ms task starts alone on one core. At t=50ms a second 100ms task
	// arrives. First finishes at 50 + 50*2 = 150ms; second at
	// 150 + 50 = 200ms (alone after the first finishes: it ran 50ms..150ms
	// at half speed = 50ms done, 50ms left at full speed).
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	var d1, d2 sim.Time
	g.Submit(100*time.Millisecond, func() { d1 = eng.Now() })
	eng.Schedule(50*time.Millisecond, func() {
		g.Submit(100*time.Millisecond, func() { d2 = eng.Now() })
	})
	eng.Run()
	within(t, d1, sim.Time(150*time.Millisecond))
	within(t, d2, sim.Time(200*time.Millisecond))
}

func TestSubmitFromCompletionCallback(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	var second sim.Time
	g.Submit(100*time.Millisecond, func() {
		g.Submit(100*time.Millisecond, func() { second = eng.Now() })
	})
	eng.Run()
	within(t, second, sim.Time(200*time.Millisecond))
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	fired := false
	g.Submit(0, func() { fired = true })
	if !fired {
		t.Fatal("zero-work task did not complete synchronously")
	}
	if eng.Now() != 0 {
		t.Fatalf("clock advanced to %v for zero work", eng.Now())
	}
}

func TestBusyCoreSecondsEqualsSubmittedWork(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 2)
	g := p.NewGroup("c1", 0)
	total := 0.0
	for _, w := range []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 400 * time.Millisecond} {
		g.Submit(w, func() {})
		total += w.Seconds()
	}
	eng.Run()
	if got := p.BusyCoreSeconds(); math.Abs(got-total) > 1e-6 {
		t.Fatalf("BusyCoreSeconds = %v, want %v", got, total)
	}
}

// running counts the pool's runnable tasks.
func running(p *Pool) int {
	n := 0
	for _, g := range p.runnable {
		n += len(g.tasks)
	}
	return n
}

func TestRunningCount(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	g.Submit(100*time.Millisecond, func() {})
	g.Submit(100*time.Millisecond, func() {})
	if n := running(p); n != 2 || len(p.runnable) != 1 {
		t.Fatalf("running = %d in %d groups, want 2 in 1", n, len(p.runnable))
	}
	eng.Run()
	if n := running(p); n != 0 || len(p.runnable) != 0 {
		t.Fatalf("running after drain = %d in %d groups, want none", n, len(p.runnable))
	}
}

func TestGroupCloseRejectsBusyGroup(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	g.Submit(time.Second, func() {})
	if err := g.Close(); err == nil {
		t.Fatal("Close of busy group succeeded, want error")
	}
	eng.Run()
	if err := g.Close(); err != nil {
		t.Fatalf("Close of drained group: %v", err)
	}
	if len(p.runnable) != 0 {
		t.Fatalf("pool still tracks %d groups after close", len(p.runnable))
	}
}

func TestStartOnClosedGroupPanics(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Start on a closed group did not panic")
		}
	}()
	g.Submit(time.Millisecond, nil)
}

// TestCloseInCallbackDoesNotSkipNeighbour: groups a, x and y; a and x
// finish at the same instant, and a's callback closes a and queues a
// zero-delay event. x's task finished in the same pass as a's, so it
// completes before that event: closing a group must not shift the next
// one out of the pass.
func TestCloseInCallbackDoesNotSkipNeighbour(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 3)
	a, x, y := p.NewGroup("a", 0), p.NewGroup("x", 0), p.NewGroup("y", 0)
	var order []string
	a.Submit(10*time.Millisecond, func() {
		order = append(order, "a")
		if err := a.Close(); err != nil {
			t.Errorf("close a: %v", err)
		}
		eng.Schedule(0, func() { order = append(order, "later-event") })
	})
	x.Submit(10*time.Millisecond, func() { order = append(order, "x") })
	y.Submit(50*time.Millisecond, func() { order = append(order, "y") })
	eng.Run()
	if want := []string{"a", "x", "later-event", "y"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestCallbackQueuesGroupAhead: a callback that gives idle groups
// created earlier their first tasks queues them ahead of the group being
// visited. The pass goes on after the visited group, so the group behind
// it still completes in this pass and the queued ones in the next, as
// when every group sat in one list.
func TestCallbackQueuesGroupAhead(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 4)
	a1, a2 := p.NewGroup("a1", 0), p.NewGroup("a2", 0)
	b, c := p.NewGroup("b", 0), p.NewGroup("c", 0)
	var order []string
	b.Submit(10*time.Millisecond, func() {
		order = append(order, "b")
		a1.Submit(0, func() { order = append(order, "a1") })
		a2.Submit(0, func() { order = append(order, "a2") })
	})
	c.Submit(10*time.Millisecond, func() { order = append(order, "c") })
	eng.Run()
	if want := []string{"b", "c", "a1", "a2"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if len(p.runnable) != 0 {
		t.Fatalf("%d groups still runnable after the run", len(p.runnable))
	}
}

// TestPokeVisitsOnlyRunnableGroups: a node with a thousand idle groups and
// one busy one keeps a runnable list of one, so a poke walks one group,
// and its steady state still allocates nothing.
func TestPokeVisitsOnlyRunnableGroups(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 4)
	for i := 0; i < 500; i++ {
		p.NewGroup("idle", 0)
	}
	busy := p.NewGroup("busy", 0)
	for i := 0; i < 500; i++ {
		p.NewGroup("idle", 0)
	}
	var tasks [4]Task
	maxRunnable := 0
	probe := func() { maxRunnable = max(maxRunnable, len(p.runnable)) }
	round := func() {
		for i := range tasks {
			busy.Start(&tasks[i], time.Duration(10+i)*time.Millisecond, probe)
		}
		probe()
		eng.Run()
	}
	round()
	if maxRunnable != 1 || len(p.runnable) != 0 {
		t.Fatalf("runnable list held up to %d groups and %d after the run, want 1 and 0", maxRunnable, len(p.runnable))
	}
	if obstest.RaceEnabled {
		return // the race runtime allocates on its own behalf
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("allocs per round beside 1,000 idle groups = %v, want 0", got)
	}
}

func TestSetCapMidFlight(t *testing.T) {
	// Two 100ms tasks on a 2-core pool, group initially uncapped (finish
	// together at 100ms). At t=50ms the cap drops to 1 core: remaining
	// 50ms each of work now progresses at 0.5 cores per task, taking
	// another 100ms, so completion is at 150ms.
	eng := sim.New(1)
	p := newFairPool(t, eng, 2)
	g := p.NewGroup("c1", 0)
	var done sim.Time
	g.Submit(100*time.Millisecond, func() { done = eng.Now() })
	g.Submit(100*time.Millisecond, func() { done = eng.Now() })
	eng.Schedule(50*time.Millisecond, func() { g.cap = 1; p.poke() })
	eng.Run()
	within(t, done, sim.Time(150*time.Millisecond))
}

func TestTaskAccessors(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	task := g.Submit(100*time.Millisecond, func() {})
	if task.done {
		t.Fatal("task done before running")
	}
	if task.rate != 1 {
		t.Fatalf("rate = %v, want 1", task.rate)
	}
	eng.RunUntil(sim.Time(40 * time.Millisecond))
	p.BusyCoreSeconds() // force advance
	if got := time.Duration(task.consumed); got < 39*time.Millisecond || got > 41*time.Millisecond {
		t.Fatalf("consumed = %v, want ~40ms", got)
	}
	if got := time.Duration(task.remaining); got < 59*time.Millisecond || got > 61*time.Millisecond {
		t.Fatalf("remaining = %v, want ~60ms", got)
	}
	eng.Run()
	if !task.done {
		t.Fatal("task not done after run")
	}
}

func TestGroupAccessors(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("web", 2.5)
	if g.label != "web" {
		t.Errorf("label = %q, want web", g.label)
	}
	if g.cap != 2.5 {
		t.Errorf("cap = %v, want 2.5", g.cap)
	}
	if len(g.tasks) != 0 {
		t.Errorf("%d tasks, want 0", len(g.tasks))
	}
	if p.cores != 1 {
		t.Errorf("cores = %v, want 1", p.cores)
	}
	if p.Discipline().Name() != "fair-share" {
		t.Errorf("Discipline = %q, want fair-share", p.Discipline().Name())
	}
}

func TestMLFQShortTaskPreemptsLong(t *testing.T) {
	// A 1s task runs alone on one core. At t=100ms (consumed 100ms, so
	// level 1) a 30ms task arrives at level 0 and takes the whole core:
	// it finishes at 130ms; the long task finishes at 1.03s.
	eng := sim.New(1)
	m := NewMLFQ()
	p, err := NewPool(eng, 1, m)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	g := p.NewGroup("c1", 0)
	var short, long sim.Time
	g.Submit(time.Second, func() { long = eng.Now() })
	eng.Schedule(100*time.Millisecond, func() {
		g.Submit(30*time.Millisecond, func() { short = eng.Now() })
	})
	eng.Run()
	within(t, short, sim.Time(130*time.Millisecond))
	within(t, long, sim.Time(1030*time.Millisecond))
}

func TestMLFQLevelDemotion(t *testing.T) {
	// Two 100ms tasks on one core with a 50ms level-0 boundary. They share
	// level 0 until each consumed 50ms (t=100ms), then both demote to
	// level 1 and share it until completion at t=200ms. The demotion
	// itself must not distort total completion time.
	eng := sim.New(1)
	m := NewMLFQ()
	p, err := NewPool(eng, 1, m)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	g := p.NewGroup("c1", 0)
	var d1, d2 sim.Time
	g.Submit(100*time.Millisecond, func() { d1 = eng.Now() })
	g.Submit(100*time.Millisecond, func() { d2 = eng.Now() })
	eng.Run()
	within(t, d1, sim.Time(200*time.Millisecond))
	within(t, d2, sim.Time(200*time.Millisecond))
}

func TestMLFQBackgroundStarvedWhileForegroundBusy(t *testing.T) {
	// A long 500ms task and a continuous stream of 40ms tasks arriving
	// every 40ms on one core: the stream occupies level 0 and the long
	// task only progresses between arrivals. After the stream stops, the
	// long task finishes. Its completion must come after all short ones.
	eng := sim.New(1)
	m := NewMLFQ()
	p, err := NewPool(eng, 1, m)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	g := p.NewGroup("c1", 0)
	var longDone, lastShort sim.Time
	g.Submit(500*time.Millisecond, func() { longDone = eng.Now() })
	for i := 0; i < 10; i++ {
		at := time.Duration(i*40) * time.Millisecond
		eng.Schedule(at, func() {
			g.Submit(40*time.Millisecond, func() { lastShort = eng.Now() })
		})
	}
	eng.Run()
	if longDone <= lastShort {
		t.Fatalf("long task finished at %v, before last short at %v", longDone, lastShort)
	}
	// Work conservation: total busy time = 500ms + 10*40ms = 900ms.
	if got := p.BusyCoreSeconds(); math.Abs(got-0.9) > 1e-6 {
		t.Fatalf("BusyCoreSeconds = %v, want 0.9", got)
	}
}

func TestMLFQNameAndLevels(t *testing.T) {
	m := NewMLFQ()
	if m.Name() != "mlfq" {
		t.Errorf("Name = %q, want mlfq", m.Name())
	}
	cases := []struct {
		consumed time.Duration
		level    int
	}{
		{0, 0},
		{49 * time.Millisecond, 0},
		{50 * time.Millisecond, 1},
		{249 * time.Millisecond, 1},
		{250 * time.Millisecond, 2},
		{time.Hour, 2},
	}
	for _, c := range cases {
		if got := m.level(float64(c.consumed)); got != c.level {
			t.Errorf("level(%v) = %d, want %d", c.consumed, got, c.level)
		}
	}
}

// Property: work conservation — when every task completes, the busy
// integral equals the total submitted work, for both disciplines.
func TestPropertyWorkConservation(t *testing.T) {
	for _, disc := range []Discipline{FairShare{}, NewMLFQ()} {
		disc := disc
		f := func(raw []uint16, coresRaw uint8, groupsRaw uint8) bool {
			cores := float64(coresRaw%8) + 1
			ngroups := int(groupsRaw%4) + 1
			eng := sim.New(11)
			p, err := NewPool(eng, cores, disc)
			if err != nil {
				return false
			}
			groups := make([]*Group, ngroups)
			for i := range groups {
				groups[i] = p.NewGroup("g", 0)
			}
			total := 0.0
			for i, r := range raw {
				w := time.Duration(r%2000) * time.Millisecond
				groups[i%ngroups].Submit(w, func() {})
				total += w.Seconds()
			}
			eng.Run()
			return math.Abs(p.BusyCoreSeconds()-total) < 1e-3 && len(p.runnable) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", disc.Name(), err)
		}
	}
}

// Property: the total allocated rate never exceeds the pool's core count
// and no task rate exceeds one core.
func TestPropertyRateBounds(t *testing.T) {
	f := func(raw []uint16, coresRaw uint8, capRaw uint8) bool {
		cores := float64(coresRaw%16) + 1
		eng := sim.New(5)
		p, err := NewPool(eng, cores, FairShare{})
		if err != nil {
			return false
		}
		cap := float64(capRaw % 4) // 0 = unlimited
		g := p.NewGroup("g", cap)
		var tasks []*Task
		for _, r := range raw {
			w := time.Duration(r%500+1) * time.Millisecond
			tasks = append(tasks, g.Submit(w, func() {}))
		}
		sum := 0.0
		for _, task := range tasks {
			if task.rate > 1+1e-9 {
				return false
			}
			sum += task.rate
		}
		if sum > cores+1e-9 {
			return false
		}
		if cap > 0 && sum > cap+1e-9 {
			return false
		}
		eng.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion order under FairShare respects work order for
// same-group simultaneous tasks (less work never finishes later).
func TestPropertySRPTOrderingWithinBatch(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		eng := sim.New(9)
		p, err := NewPool(eng, 2, FairShare{})
		if err != nil {
			return false
		}
		g := p.NewGroup("g", 0)
		type rec struct {
			work time.Duration
			done sim.Time
		}
		recs := make([]*rec, len(raw))
		for i, r := range raw {
			rc := &rec{work: time.Duration(r%1000+1) * time.Millisecond}
			recs[i] = rc
			g.Submit(rc.work, func() { rc.done = eng.Now() })
		}
		eng.Run()
		for i := range recs {
			for j := range recs {
				if recs[i].work < recs[j].work && recs[i].done > recs[j].done {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMLFQSetBaseQuantum(t *testing.T) {
	m := NewMLFQ()
	if got := m.BaseQuantum(); got != 50*time.Millisecond {
		t.Fatalf("BaseQuantum = %v, want 50ms default", got)
	}
	if err := m.SetBaseQuantum(100 * time.Millisecond); err != nil {
		t.Fatalf("SetBaseQuantum: %v", err)
	}
	// Ratios preserved: 50/250 -> 100/500.
	if m.Thresholds[0] != 100*time.Millisecond || m.Thresholds[1] != 500*time.Millisecond {
		t.Fatalf("thresholds = %v", m.Thresholds)
	}
	if err := m.SetBaseQuantum(0); err == nil {
		t.Error("zero quantum accepted")
	}
	empty := &MLFQ{}
	if err := empty.SetBaseQuantum(time.Millisecond); err == nil {
		t.Error("empty thresholds accepted")
	}
	if empty.BaseQuantum() != 0 {
		t.Error("empty BaseQuantum should be 0")
	}
}

func TestPoolReallocateAfterQuantumChange(t *testing.T) {
	// A long task demoted to background regains level 0 when the quantum
	// grows above its consumed CPU, pre-empting nothing but re-running at
	// level 0 priority alongside new arrivals.
	eng := sim.New(1)
	m := NewMLFQ()
	p, err := NewPool(eng, 1, m)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	g := p.NewGroup("c", 0)
	var longDone, shortDone sim.Time
	g.Submit(300*time.Millisecond, func() { longDone = eng.Now() })
	// At t=100ms the long task consumed 100ms (level 1). Grow the base
	// quantum to 1s: it re-levels to 0 and now shares fairly with a
	// fresh 100ms task instead of being starved by it.
	eng.Schedule(100*time.Millisecond, func() {
		if err := m.SetBaseQuantum(time.Second); err != nil {
			t.Errorf("SetBaseQuantum: %v", err)
		}
		p.Reallocate()
		g.Submit(100*time.Millisecond, func() { shortDone = eng.Now() })
	})
	eng.Run()
	// Fair sharing from t=100ms: the short task (100ms at half speed)
	// finishes at 300ms; the long task progresses 100ms of its remaining
	// 200ms by then and runs its last 100ms alone, finishing at 400ms.
	within(t, shortDone, sim.Time(300*time.Millisecond))
	within(t, longDone, sim.Time(400*time.Millisecond))
}

// TestStartReusesCallerOwnedTask: a submitter that carries its Task runs
// it again once it is done; starting one that is still running is a bug.
func TestStartReusesCallerOwnedTask(t *testing.T) {
	eng := sim.New(1)
	p := newFairPool(t, eng, 1)
	g := p.NewGroup("c1", 0)
	var task Task
	runs := 0
	var again func()
	again = func() {
		runs++
		if runs < 3 {
			g.Start(&task, 10*time.Millisecond, again) // from its own completion
		}
	}
	g.Start(&task, 10*time.Millisecond, again)
	eng.Run()
	if runs != 3 || !task.done || task.consumed != float64(10*time.Millisecond) {
		t.Fatalf("runs = %d, done = %v, consumed = %v; want 3 runs, the last one's 10ms", runs, task.done, time.Duration(task.consumed))
	}
	within(t, eng.Now(), sim.Time(30*time.Millisecond))

	g.Start(&task, time.Second, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Start on a running task did not panic")
		}
	}()
	g.Start(&task, time.Second, nil)
}

// TestPoolSteadyStateAllocFree: on a warm pool — groups made, scratch
// sized — submit, poke and complete allocate nothing under either
// discipline, for a submitter that carries its tasks.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	for _, disc := range []Discipline{FairShare{}, NewMLFQ()} {
		t.Run(disc.Name(), func(t *testing.T) {
			eng := sim.New(1)
			p, err := NewPool(eng, 4, disc)
			if err != nil {
				t.Fatal(err)
			}
			groups := []*Group{p.NewGroup("a", 0), p.NewGroup("b", 2), p.NewGroup("c", 1)}
			var tasks [12]Task
			done := 0
			onDone := func() { done++ }
			round := func() {
				for i := range tasks {
					// Long enough to cross MLFQ's first boundary mid-run.
					groups[i%len(groups)].Start(&tasks[i], time.Duration(20+10*i)*time.Millisecond, onDone)
				}
				eng.Run()
			}
			round() // sizes the heap and the pool's scratch
			if got := testing.AllocsPerRun(20, round); got != 0 {
				t.Errorf("allocs per %d-task round = %v, want 0", len(tasks), got)
			}
			if done != 22*len(tasks) {
				t.Fatalf("completed %d tasks, want %d", done, 22*len(tasks))
			}
		})
	}
}
