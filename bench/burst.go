package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/trace"
	wl "faasbatch/internal/workload"
)

// burst_batch is the paper's experiment (Fig. 10, 12, 14) on the live
// platform: an open-loop replay of a bursty I/O trace against the default
// configuration (fixed 200 ms window, 100 ms cold start, multiplexer on).
// Window wait, cold start, one group per container and client reuse set
// the latency; the platform's own CPU cost is invisible here.
const (
	burstRate     = 200 // scheduled invocations per second
	burstBuild    = 30 * time.Millisecond
	burstIO       = 250 * time.Millisecond
	burstKeepWarm = 2 * time.Second
	// The io-* functions share one client key; io-scatter draws one of
	// scatterKeys keys against a multiplexer bounded at scatterCap, so
	// misses, evictions and closes run beside the hits.
	scatterKeys = 64
	scatterCap  = 16
	// rareFns spreads the io-rare share over this many functions, each
	// invoked a few times a run and so nearly always cold: the long tail
	// of rarely invoked functions in the Azure trace. It holds the cold
	// share near 5 %, well clear of the 1 % the p99 cuts at; with only
	// the first window of each hot function cold, the share sits at 1 %
	// and the p99 flips between a warm and a cold invocation by seed.
	rareFns = 32
	// replayAttempts bounds how often an invalid replay (lateLimit) is
	// repeated before the run fails.
	replayAttempts = 3
	// lateLimit invalidates a run whose generator fell behind: beyond
	// it the latencies measure this process, not the platform.
	lateLimit = 50 * time.Millisecond
)

// burstMix is the function mix, in per cent.
var burstMix = []struct {
	fn    string
	share int
}{{"io-a", 55}, {"io-b", 25}, {"io-c", 10}, {"io-rare", 5}, {"io-scatter", 5}}

// burstFns lists every function the schedule can name.
func burstFns() []string {
	var fns []string
	for _, m := range burstMix {
		if m.fn != "io-rare" {
			fns = append(fns, m.fn)
		}
	}
	for i := 0; i < rareFns; i++ {
		fns = append(fns, fmt.Sprintf("io-rare-%d", i))
	}
	return fns
}

// arrival is one scheduled invocation.
type arrival struct {
	due     time.Duration
	fn      string
	payload []byte
}

// burstSchedule generates the open-loop schedule for seed: the paper's
// burst shape from trace.SynthesizeBurst at burstRate over span, with a
// seeded function and client-key pick per arrival.
func burstSchedule(seed int64, span time.Duration) ([]arrival, error) {
	cfg := trace.DefaultBurstConfig(wl.IO)
	cfg.Seed = seed
	cfg.N = int(burstRate * span.Seconds())
	cfg.Span = span
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	sched := make([]arrival, len(tr.Invocations))
	for i, inv := range tr.Invocations {
		pick, fn := rng.Intn(100), ""
		for _, m := range burstMix {
			if pick < m.share {
				fn = m.fn
				break
			}
			pick -= m.share
		}
		key := "shared"
		switch fn {
		case "io-scatter":
			key = fmt.Sprintf("k%d", rng.Intn(scatterKeys))
		case "io-rare":
			fn = fmt.Sprintf("io-rare-%d", rng.Intn(rareFns))
		}
		sched[i] = arrival{
			due:     inv.Offset,
			fn:      fn,
			payload: []byte(fmt.Sprintf(`{"id":%d,"key":"%s"}`, i, key)),
		}
	}
	return sched, nil
}

// ioClient is the cached storage client; the multiplexer closes it on
// eviction.
type ioClient struct{ closes *atomic.Int64 }

func (c *ioClient) Close() error { c.closes.Add(1); return nil }

// burstRig is the cold platform and the schedule to replay on it.
type burstRig struct {
	p      *platform.Platform
	sched  []arrival
	builds atomic.Int64
	closes atomic.Int64
}

func newBurstRig(seed int64, span time.Duration) (*burstRig, error) {
	sched, err := burstSchedule(seed, span)
	if err != nil {
		return nil, err
	}
	r := &burstRig{sched: sched}
	cfg := platform.DefaultConfig()
	cfg.KeepAlive = burstKeepWarm
	cfg.Multiplexer.MaxEntries = scatterCap
	r.p, err = newPlatform(cfg, burstFns(), r.handle)
	return r, err
}

// handle is the I/O function of Listing 1: create (or share) the storage
// client named in the payload, wait on the I/O, return the payload.
func (r *burstRig) handle(ctx context.Context, inv *platform.Invocation) (any, error) {
	var in struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(inv.Payload, &in); err != nil {
		return nil, err
	}
	_, _, err := inv.Resources.GetContext(ctx, "storage.client", in.Key, func() (any, int64, error) {
		r.builds.Add(1)
		time.Sleep(burstBuild)
		return &ioClient{closes: &r.closes}, 1 << 20, nil
	})
	if err != nil {
		return nil, err
	}
	time.Sleep(burstIO)
	return json.RawMessage(inv.Payload), nil
}

func (r *burstRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	return r.p.CloseContext(ctx)
}

// replayOut is one open-loop replay.
type replayOut struct {
	lat     []int64 // ok invocations, from due time to reply, sorted
	late    []int64 // how late each invocation fired, sorted
	failed  int64
	wall    time.Duration
	mallocs uint64
	shares  latencyShares
}

// replay fires the schedule from one pacing goroutine, each invocation on
// its own goroutine so a slow reply never delays the next arrival, and
// times every invocation from when it was due, not from when it fired.
func (r *burstRig) replay(tr *obs.Tracer) replayOut {
	n := len(r.sched)
	lat := make([]int64, n)
	late := make([]int64, n)
	part := make([]parts, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range r.sched {
		a := &r.sched[i]
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = int64(time.Since(start) - a.due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.p.Invoke(context.Background(), a.fn, a.payload)
			done := time.Since(start)
			got, isRaw := res.Value.(json.RawMessage)
			if err != nil || !isRaw || !bytes.Equal(got, a.payload) {
				lat[i] = -1
				return
			}
			lat[i] = int64(done - a.due)
			part[i] = partsOf(res)
			if tr != nil {
				// The tracer's clock started before this replay did;
				// shift the schedule's offsets onto it.
				end := tr.Now()
				recordInvocation(tr, uint64(i+1), a.fn, end-(done-a.due), end, part[i])
			}
		}(i)
	}
	wg.Wait()
	out := replayOut{wall: time.Since(start), late: late}
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	for i, l := range lat {
		if l < 0 {
			out.failed++
			continue
		}
		out.lat = append(out.lat, l)
		out.shares.add(time.Duration(l), part[i])
	}
	slices.Sort(out.lat)
	slices.Sort(out.late)
	return out
}

// check closes the platform and verifies the replay's outputs beyond the
// per-reply echo: the platform's accounting balances, and no client was
// closed that was never built.
func (r *burstRig) check() error {
	if err := r.close(); err != nil {
		return err
	}
	if err := conservedPlatform(r.p); err != nil {
		return err
	}
	if c, b := r.closes.Load(), r.builds.Load(); c > b {
		return fmt.Errorf("burst_batch: %d clients closed but only %d built", c, b)
	}
	return nil
}

// validReplay replays a fresh rig's schedule until the generator kept up:
// when the box stalls this process for longer than lateLimit in the middle
// of a burst, the replay measured the stall, not the platform, and is
// thrown away. It returns the last rig, still open, and its replay.
func validReplay(rig *burstRig, o options, span time.Duration, tr *obs.Tracer) (*burstRig, replayOut, error) {
	for attempt := 1; ; attempt++ {
		out := rig.replay(tr)
		worst := time.Duration(out.late[len(out.late)*99/100])
		if worst <= lateLimit || !o.measuring() {
			return rig, out, nil
		}
		if attempt == replayAttempts {
			return rig, out, fmt.Errorf("burst_batch: run invalid, generator fired %v late at p99 (limit %v) in each of %d replays", worst, lateLimit, attempt)
		}
		if err := rig.close(); err != nil {
			return rig, out, err
		}
		var err error
		if rig, err = newBurstRig(o.seed, span); err != nil {
			return nil, out, err
		}
	}
}

func runBurst(o options) (*e2e, error) {
	rig, setup, reps, err := timeSetup(o,
		func() (*burstRig, error) { return newBurstRig(o.seed, o.window()) },
		(*burstRig).close)
	if err != nil {
		return nil, err
	}
	rig, out, lateErr := validReplay(rig, o, o.window(), nil)
	if rig == nil {
		return nil, lateErr
	}
	res := &e2e{setupS: setup, setupReps: reps, samples: len(out.lat)}
	res.attempted = int64(len(rig.sched))
	res.failed = out.failed
	if ok := len(out.lat); ok > 0 {
		res.rps = float64(ok) / out.wall.Seconds()
		res.allocs = float64(out.mallocs) / float64(ok)
	}
	res.latencies(out.lat, o.beyond())
	res.problem(lateErr)
	res.problem(rig.check())
	return res, nil
}

func sliceBurst(o options, tr *obs.Tracer) (*sliceOut, error) {
	window := o.sliceWindow() * 5 / 2
	rig, err := newBurstRig(o.seed, window)
	if err != nil {
		return nil, err
	}
	rig, out, lateErr := validReplay(rig, o, window, tr)
	if rig == nil {
		return nil, lateErr
	}
	so := &sliceOut{vals: map[string]float64{}, attempted: int64(len(rig.sched)), failed: out.failed}
	if ok := len(out.lat); ok > 0 {
		so.vals["client.achieved_rps"] = float64(ok) / out.wall.Seconds()
		so.rate = float64(ok) / (float64(out.shares.client) / float64(time.Second))
	}
	p99, err := percentile(out.lat, 0.99, o.beyond())
	so.problem(err)
	so.vals["client.latency_p99_ms"] = float64(p99) / 1e6
	out.shares.into(so.vals)
	platformCounters(so.vals, rig.p.Stats())
	so.problem(lateErr)
	so.problem(rig.check())
	return so, nil
}
