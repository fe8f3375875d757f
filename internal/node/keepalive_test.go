package node

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"faasbatch/internal/cpusched"
	"faasbatch/internal/obs/obstest"
	"faasbatch/internal/sim"
)

// TestKeepAliveFIFOFiresInTimerOrder: the node's one keep-alive timer over
// its FIFO of parked containers expires each container exactly where a
// timer of its own, armed at park time, would have fired — among events
// queued for that instant before the park, between the parks, after them
// and later still — after the FIFO's head left it by a crash and its tail
// by a warm reuse. Each marker logs the evictions seen so far.
func TestKeepAliveFIFOFiresInTimerOrder(t *testing.T) {
	cfg := testConfig()
	eng := sim.New(1)
	n := newTestNode(t, eng, cfg)
	var cs []*Container
	for i := 0; i < 4; i++ {
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { cs = append(cs, r.Container) }))
	}
	eng.RunUntil(sim.Time(5 * time.Second)) // booted and held
	if len(cs) != 4 {
		t.Fatalf("%d containers booted, want 4", len(cs))
	}
	var log []string
	marker := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s:%d", name, n.Evictions())) }
	}
	expiry := eng.Now().Add(cfg.KeepAlive)
	pending := eng.Pending()
	eng.ScheduleAt(expiry, marker("m0")) // queued before any park
	for i, c := range cs {
		c.ReturnThread() // parks, reserving its deadline
		eng.ScheduleAt(expiry, marker(fmt.Sprintf("m%d", i+1)))
	}
	if got := eng.Pending() - pending; got != 5+1 {
		t.Fatalf("%d events queued by 5 markers and 4 parks, want 6: parked containers share one timer", got)
	}
	eng.Schedule(time.Second, func() {
		cs[0].Crash()                                                         // the head leaves the FIFO
		n.Acquire("f", AcquireOptions{}, AcquireFunc(func(AcquireResult) {})) // so does the tail, reused
		eng.ScheduleAt(expiry, marker("late"))
	})
	eng.Run()
	// Per-container timers: c1 is gone, c2 and c3 expire right after the
	// markers queued before their parks, c4 stays busy.
	want := "m0:0 m1:0 m2:1 m3:2 m4:2 late:2"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("firing order %q, want %q", got, want)
	}
	if cs[3].State() != Busy || n.Evictions() != 2 || eng.Pending() != 0 {
		t.Fatalf("reused container %v, %d evictions, %d pending; want busy, 2, 0", cs[3].State(), n.Evictions(), eng.Pending())
	}
}

// lifecycleUser boots, runs, parks and lets expire one container.
type lifecycleUser struct {
	c    *Container
	task cpusched.Task
	done func()
}

func (u *lifecycleUser) Acquired(r AcquireResult) {
	u.c = r.Container
	u.c.Group().Start(&u.task, 10*time.Millisecond, u.done)
}

func (u *lifecycleUser) finish() { u.c.ReturnThread() }

// TestContainerLifecycleAllocBudget pins what a container's whole life
// costs the allocator: creation, boot with init work, a run, the park and
// the keep-alive expiry of 1,000 containers acquired with a multiplexer
// they never look anything up in. What remains is the container, its id,
// its one continuation and its two CPU groups; the keep-alive timer, the
// creation request, the boot's closures and tasks, the groups' task lists
// and the multiplexer cache cost nothing.
func TestContainerLifecycleAllocBudget(t *testing.T) {
	if obstest.RaceEnabled {
		t.Skip("the race runtime allocates on its own behalf")
	}
	const containers, budget = 1000, 7
	cfg := testConfig()
	cfg.ContainerInitCPUWork = 50 * time.Millisecond
	eng := sim.New(1)
	n := newTestNode(t, eng, cfg)
	users := make([]lifecycleUser, containers)
	for i := range users {
		users[i].done = users[i].finish
	}
	round := func() {
		for i := range users {
			n.Acquire("f", AcquireOptions{Multiplex: true}, &users[i])
		}
		eng.Run()
	}
	round() // size the heap, the free list, the queues and the warm pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	if n.TotalCreated() != 2*containers || n.Evictions() != 2*containers || n.LiveContainers() != 0 {
		t.Fatalf("created %d, evicted %d, live %d; want %d, %d, 0", n.TotalCreated(), n.Evictions(), n.LiveContainers(), 2*containers, 2*containers)
	}
	per := float64(after.Mallocs-before.Mallocs) / containers
	t.Logf("%.2f allocations per container lifecycle", per)
	if per > budget {
		t.Errorf("%.2f allocations per container lifecycle, budget %d", per, budget)
	}
}

// TestKeepAliveFIFOPoisonsBusyParked: a container checked out behind the
// warm pool's back is still in the FIFO; under the race build its expiry
// panics instead of silently skipping it.
func TestKeepAliveFIFOPoisonsBusyParked(t *testing.T) {
	if !poison {
		t.Skip("the FIFO check rides the race build")
	}
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var c *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { c = r.Container }))
	eng.RunUntil(sim.Time(time.Second))
	c.ReturnThread()
	c.CheckoutThread()
	defer func() {
		msg, _ := recover().(string)
		if want := "in the keep-alive FIFO is busy"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	eng.Run()
	t.Fatal("a busy container expired from the keep-alive FIFO without a panic")
}

// TestTornDownIdleContainerLeavesWarmPool: a parked container that
// crashes leaves the warm pool with its keep-alive, so the next
// acquisition boots a fresh container instead of being handed the
// evicted one.
func TestTornDownIdleContainerLeavesWarmPool(t *testing.T) {
	eng := sim.New(1)
	n := newTestNode(t, eng, testConfig())
	var first *Container
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { first = r.Container }))
	eng.RunUntil(sim.Time(time.Second))
	first.ReturnThread()
	first.Crash()
	if n.WarmCount("f") != 0 || eng.Pending() != 0 {
		t.Fatalf("after the crash: %d warm, %d pending; want 0, 0", n.WarmCount("f"), eng.Pending())
	}
	var second AcquireResult
	n.Acquire("f", AcquireOptions{}, AcquireFunc(func(r AcquireResult) { second = r }))
	eng.RunUntil(sim.Time(2 * time.Second))
	if !second.Cold || second.Container == first || second.Container.State() != Busy {
		t.Fatalf("acquired %+v after the crash, want a cold start on a fresh container", second)
	}
}
