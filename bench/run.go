package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
)

// runSeconds is the measured window of a measurement: the run_seconds of
// BENCHMARK.json, which the benchmark's driver passes as -seconds. A
// shorter -seconds is a smoke run, with everything else shrunk in
// proportion.
const runSeconds = 12

// options is one run's settings after flag parsing.
type options struct {
	seed    int64
	seconds float64 // measured window of the end-to-end pass
	outDir  string  // where traced passes write Chrome trace files
}

// scale is the size of the run relative to a measurement.
func (o options) scale() float64 { return o.seconds / runSeconds }

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// warm is the timed, discarded closed loop before the measured window.
func (o options) warm() time.Duration { return time.Duration(o.scale() * float64(time.Second)) }

// sliceWindow is the length of a traced pass's workload slice.
func (o options) sliceWindow() time.Duration {
	return time.Duration(2 * o.scale() * float64(time.Second))
}

// probeN is how many requests each ladder rung sees.
func (o options) probeN() int {
	n := int(3000 * o.scale())
	if n < 64 {
		n = 64
	}
	return n
}

// measuring reports whether the run is a measurement rather than a smoke
// run. Checks on the quality of a measurement (enough samples past a
// percentile, a generator that kept up, full groups) apply only to one: a
// smoke run on a loaded machine fails them and measures nothing anyway.
func (o options) measuring() bool { return o.seconds >= runSeconds }

// beyond is how many samples must lie beyond a reported percentile.
func (o options) beyond() int {
	if o.measuring() {
		return 10
	}
	return 0
}

// checks collects a pass's failed output checks; any problem makes the
// pass incorrect and the exit code non-zero.
type checks struct {
	problems []string
}

func (c *checks) problem(err error) {
	if err != nil {
		c.problems = append(c.problems, err.Error())
	}
}

// e2e is an end-to-end pass: the five metrics every workload reports,
// plus what the run needs to be judged correct.
type e2e struct {
	checks
	setupS    float64
	setupReps int
	rps       float64
	p50ms     float64
	p99ms     float64
	samples   int
	// laps the measured window was cut into and how many of them were
	// measured; 1 and 1 where the whole window is.
	laps, calm int
	allocs     float64
	attempted  int64
	failed     int64
}

// fromLoop fills the throughput, latency and allocation metrics from a
// closed-loop run: throughput and latency over every operation of the
// measured laps, allocations and failures over the whole window.
func (r *e2e) fromLoop(out *loopOut, beyond int) {
	r.attempted = out.ok + out.failed
	r.failed = out.failed
	r.samples = len(out.lat)
	r.laps, r.calm = out.laps, out.calm
	r.rps = out.rate()
	r.latencies(out.lat, beyond)
	if out.ok > 0 {
		r.allocs = float64(out.mallocs) / float64(out.ok)
	}
}

// latencies fills the median and the 99th percentile from sorted
// latencies in nanoseconds.
func (r *e2e) latencies(sorted []int64, beyond int) {
	p50, err := percentile(sorted, 0.50, beyond)
	r.problem(err)
	p99, err := percentile(sorted, 0.99, beyond)
	r.problem(err)
	r.p50ms, r.p99ms = float64(p50)/1e6, float64(p99)/1e6
}

func (r *e2e) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":        r.setupS,
		"throughput_rps": r.rps,
		"latency_p50_ms": r.p50ms,
		"latency_p99_ms": r.p99ms,
		"allocs_per_op":  r.allocs,
	}
}

// sliceOut is a traced pass's workload slice: the per-layer values it
// produced by name, and its rate for the tracing-overhead comparison.
type sliceOut struct {
	checks
	vals      map[string]float64
	rate      float64 // operations per second (open loop: 1 / mean latency)
	attempted int64
	failed    int64
}

// newSliceOut starts a sliceOut from a closed-loop slice.
func newSliceOut(out *loopOut, o options) *sliceOut {
	s := &sliceOut{vals: map[string]float64{}, attempted: out.ok + out.failed, failed: out.failed}
	s.rate = out.rate()
	s.vals["client.achieved_rps"] = s.rate
	p99, err := percentile(out.lat, 0.99, o.beyond())
	s.problem(err)
	s.vals["client.latency_p99_ms"] = float64(p99) / 1e6
	return s
}

// parts is the platform's latency decomposition of one invocation
// (PAPER.md §IV): scheduling, cold start, queuing, execution.
type parts struct {
	sched, cold, queue, exec time.Duration
}

func (p parts) total() time.Duration { return p.sched + p.cold + p.queue + p.exec }

func partsOf(r platform.Result) parts {
	return parts{sched: r.Sched, cold: r.ColdStart, queue: r.Queue, exec: r.Exec}
}

// latencyShares sums client-observed latency and its decomposition over
// a slice, to report where the time went as shares.
type latencyShares struct {
	client time.Duration
	parts
}

func (l *latencyShares) add(client time.Duration, p parts) {
	l.client += client
	l.sched += p.sched
	l.cold += p.cold
	l.queue += p.queue
	l.exec += p.exec
}

func (l *latencyShares) merge(o latencyShares) { l.add(o.client, o.parts) }

// into writes the shares: the platform's part of the client latency, and
// each component's part of the platform latency.
func (l latencyShares) into(vals map[string]float64) {
	total := l.total()
	if l.client <= 0 || total <= 0 {
		return
	}
	vals["platform.latency_share"] = float64(total) / float64(l.client)
	vals["mapper.sched_share"] = float64(l.sched) / float64(total)
	vals["producer.cold_share"] = float64(l.cold) / float64(total)
	vals["producer.queue_share"] = float64(l.queue) / float64(total)
	vals["handler.exec_share"] = float64(l.exec) / float64(total)
}

// Span names of an invocation's children, after the layer that owns the
// time.
const (
	spanClient = "client.invoke"
	spanSched  = "mapper.sched"
	spanCold   = "producer.cold"
	spanQueue  = "producer.queue"
	spanExec   = "handler.exec"
)

// span records one bench-side span. obs.Span has no parent field, so the
// parent's name rides in Detail; spans of one request share id.
func span(tr *obs.Tracer, id uint64, name, parent, fn string, start, end time.Duration) {
	tr.Record(obs.Span{Trace: id, Name: name, Detail: parent, Fn: fn, Start: start, End: end})
}

// recordInvocation records a client span over [t0, t1] and the platform's
// decomposition as its children, laid end to end and centred in it: what
// is left on either side is the path to and from the platform.
func recordInvocation(tr *obs.Tracer, id uint64, fn string, t0, t1 time.Duration, p parts) {
	span(tr, id, spanClient, "", fn, t0, t1)
	at := t0 + (t1-t0-p.total())/2
	if at < t0 {
		at = t0
	}
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{spanSched, p.sched}, {spanCold, p.cold}, {spanQueue, p.queue}, {spanExec, p.exec}} {
		if c.d > 0 {
			span(tr, id, c.name, spanClient, fn, at, at+c.d)
			at += c.d
		}
	}
}

// traceDir is where the traced pass writes its Chrome trace files; the
// root .gitignore names it.
const traceDir = "bench/out"

// writeTrace writes the tracer's spans as Chrome trace JSON (loadable in
// Perfetto or chrome://tracing) and returns the path.
func writeTrace(tr *obs.Tracer, dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/" + workload + ".trace.json"
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// addStats folds one platform's counters into sum.
func addStats(sum *platform.Stats, s platform.Stats) {
	sum.Submitted += s.Submitted
	sum.Canceled += s.Canceled
	sum.Invocations += s.Invocations
	sum.Failures += s.Failures
	sum.Retries += s.Retries
	sum.Groups += s.Groups
	sum.FastPathDispatches += s.FastPathDispatches
	sum.EarlyCloses += s.EarlyCloses
	sum.WindowDispatches += s.WindowDispatches
	sum.ContainersCreated += s.ContainersCreated
	sum.WarmStarts += s.WarmStarts
	sum.Multiplexer.Add(s.Multiplexer)
}

// platformCounters writes the Invoke Mapper, producer and multiplexer
// counters of a slice. Warm-up invocations are included: they ran through
// the same layers.
func platformCounters(vals map[string]float64, s platform.Stats) {
	vals["mapper.groups"] = float64(s.Groups)
	if s.Groups > 0 {
		vals["mapper.avg_group_size"] = float64(s.Invocations) / float64(s.Groups)
	}
	vals["mapper.fast_path_dispatches"] = float64(s.FastPathDispatches)
	vals["mapper.early_closes"] = float64(s.EarlyCloses)
	vals["mapper.window_dispatches"] = float64(s.WindowDispatches)
	vals["producer.containers_created"] = float64(s.ContainersCreated)
	vals["producer.warm_starts"] = float64(s.WarmStarts)
	if starts := s.ContainersCreated + s.WarmStarts; starts > 0 {
		vals["producer.warm_share"] = float64(s.WarmStarts) / float64(starts)
	}
	if s.Invocations > 0 {
		vals["producer.containers_per_1k"] = 1000 * float64(s.ContainersCreated) / float64(s.Invocations)
	}
	vals["platform.retries"] = float64(s.Retries)
	vals["platform.failures"] = float64(s.Failures)
	vals["platform.canceled"] = float64(s.Canceled)
	m := s.Multiplexer
	vals["multiplex.hits"] = float64(m.Hits)
	vals["multiplex.misses"] = float64(m.Misses)
	vals["multiplex.coalesced"] = float64(m.Coalesced)
	vals["multiplex.evictions"] = float64(m.Evictions)
	if lookups := m.Hits + m.Coalesced + m.Misses; lookups > 0 {
		vals["multiplex.hit_ratio"] = float64(m.Hits+m.Coalesced) / float64(lookups)
	}
}

// processGauges writes the generator process's own footprint.
func processGauges(vals map[string]float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	vals["proc.gc_cpu_share"] = m.GCCPUFraction
	vals["proc.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// timeSetup measures set-up: it builds and tears down repeatedly, until
// ten repetitions and a second have both passed (cheap set-ups repeat
// more, so that their median spans as many of the box's moods as an
// expensive one's), and returns the last build kept open, the median
// build time and the repetition count. A smoke run builds once.
func timeSetup[T any](o options, build func() (T, error), tear func(T) error) (T, float64, int, error) {
	var zero T
	var times []float64
	var spent time.Duration
	for {
		start := time.Now()
		v, err := build()
		d := time.Since(start)
		if err != nil {
			return zero, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		spent += d
		if !o.measuring() || (len(times) >= 10 && spent >= time.Second) || len(times) >= 10000 {
			return v, median(times), len(times), nil
		}
		if err := tear(v); err != nil {
			return zero, 0, 0, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

// eachClient runs fn(0..n-1) concurrently and joins their errors.
func eachClient(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
