// Command bench is the repository's benchmark: six workloads, from a warm
// gateway on loopback to the million-invocation fleet simulation, each
// reporting the same five end-to-end metrics, and a traced pass that
// measures every layer from outside. BENCHMARK.json at the repository
// root declares the names and the regression bounds; README.md in this
// directory explains every workload and metric.
//
//	go run ./bench                      every workload, both passes
//	go run ./bench -workload routed_pull -trace 0 -seed 7
//	go run ./bench -workload gateway_warm -trace 1
//	go run ./bench -repeat 2            run-to-run agreement check
//	go run ./bench -seconds 0.6         smoke run, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/router"
)

// workload is one entry of the benchmark.
type workload struct {
	name string
	// run is the end-to-end pass, tracing off.
	run func(o options) (*e2e, error)
	// slice is the short run of the same workload inside the traced
	// pass: with a tracer it records spans and reads the per-layer
	// counters, without one it is the tracing-overhead baseline.
	slice func(o options, tr *obs.Tracer) (*sliceOut, error)
	// policy is the router policy the ladder's router rungs run under.
	policy string
	// procs is the GOMAXPROCS both passes run under; 0 leaves it at the
	// number of processors. See README.md, "One P or all of them".
	procs int
}

// pin sets GOMAXPROCS for w and returns the function that restores it.
func (w workload) pin() (restore func()) {
	prev := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func workloads() []workload {
	http := func(name, policy string) workload {
		return workload{
			name:   name,
			run:    func(o options) (*e2e, error) { return runHTTP(name, o) },
			slice:  func(o options, tr *obs.Tracer) (*sliceOut, error) { return sliceHTTP(name, o, tr) },
			policy: policy, procs: 1,
		}
	}
	return []workload{
		http("gateway_warm", router.PolicyHash),
		http("routed_hash", router.PolicyHash),
		http("routed_pull", router.PolicyPull),
		{name: "batch_saturate", run: runSaturate, slice: sliceSaturate, policy: router.PolicyHash},
		{name: "burst_batch", run: runBurst, slice: sliceBurst, policy: router.PolicyHash},
		{name: "sim_fleet", run: runSimFleet, slice: sliceSimFleet, policy: router.PolicyHash, procs: 1},
	}
}

// line is the machine-readable result of one pass: the last line of
// standard output when a single workload and pass are selected.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one pass: every declared metric by name with its unit, any
// failed check, and the JSON line. It reports whether the pass was
// correct.
func emit(w io.Writer, title string, decls []decl, vals map[string]float64, notes map[string]string, attempted, failed int64, problems []string) bool {
	fmt.Fprintf(w, "%s\n", title)
	out := line{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range decls {
		out.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s %s\n", d.Name, vals[d.Name], d.Unit, notes[d.Name])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", attempted, failed)
	for _, p := range problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", raw)
	return out.Correct
}

// endToEndPass runs w with tracing off and prints its metrics.
func endToEndPass(out io.Writer, w workload, o options) (*e2e, bool, error) {
	defer w.pin()()
	res, err := w.run(o)
	if err != nil {
		return nil, false, err
	}
	n := fmt.Sprintf("(n=%d)", res.samples)
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("(median of %d set-ups)", res.setupReps),
		"latency_p50_ms": n,
		"latency_p99_ms": n,
	}
	if res.laps > 1 {
		notes["throughput_rps"] = fmt.Sprintf("(the %d of %d laps at the fast pace)", res.calm, res.laps)
	}
	title := fmt.Sprintf("workload %s, end to end (tracing off, gomaxprocs=%d)", w.name, runtime.GOMAXPROCS(0))
	ok := emit(out, title, endToEnd, res.metrics(), notes, res.attempted, res.failed, res.problems)
	return res, ok, nil
}

// perLayerPass runs the traced pass of w: the ladder and the stand-alone
// probes, then the workload's slice twice, tracing off and on, whose
// rates give the tracing overhead. Spans go to a Chrome trace file.
func perLayerPass(out io.Writer, w workload, o options) (bool, error) {
	defer w.pin()()
	// Room for every span of a pass; a dropped span fails the pass.
	tr, err := obs.NewWallTracer(1<<18, 1)
	if err != nil {
		return false, err
	}
	vals := map[string]float64{}
	if err := runLadder(o, tr, w.policy, vals); err != nil {
		return false, fmt.Errorf("ladder: %w", err)
	}
	if err := runProbes(o, tr, vals); err != nil {
		return false, err
	}
	base, err := w.slice(o, nil)
	if err != nil {
		return false, fmt.Errorf("untraced slice: %w", err)
	}
	traced, err := w.slice(o, tr)
	if err != nil {
		return false, fmt.Errorf("traced slice: %w", err)
	}
	for k, v := range traced.vals {
		vals[k] = v
	}
	if base.rate > 0 && traced.rate > 0 {
		vals["trace.overhead_share"] = base.rate/traced.rate - 1
	}
	processGauges(vals)
	path, err := writeTrace(tr, o.outDir, w.name)
	if err != nil {
		return false, fmt.Errorf("write trace: %w", err)
	}
	problems := append(base.problems, traced.problems...)
	if dropped := tr.Dropped(); dropped > 0 {
		problems = append(problems, fmt.Sprintf("tracer dropped %d spans", dropped))
	}
	title := fmt.Sprintf("workload %s, per layer (traced pass, gomaxprocs=%d, spans in %s)", w.name, runtime.GOMAXPROCS(0), path)
	return emit(out, title, perLayer, vals, nil, base.attempted+traced.attempted, base.failed+traced.failed, problems), nil
}

// guard arms the hard limit of one workload: past it the process dumps
// every goroutine and exits non-zero, so a hang is a loud failure.
func guard(name string, limit time.Duration) *time.Timer {
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s exceeded its %v limit; goroutines:\n", name, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
}

// stamp describes the environment of a run; each pass prints the
// GOMAXPROCS it ran under beside it.
func stamp(o options) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d seed=%d seconds=%g",
		commit, runtime.Version(), runtime.NumCPU(), o.seed, o.seconds)
}

func main() {
	var (
		name   = flag.String("workload", "", "run only this workload (default: all six)")
		seed   = flag.Int64("seed", 1, "seed of every generated input")
		secs   = flag.Float64("seconds", runSeconds, "measured window of the end-to-end pass; a shorter one is a smoke run, not a measurement, and shrinks every other duration and size with it")
		trace  = flag.String("trace", "both", "0: end-to-end pass only, 1: traced per-layer pass only, both")
		repeat = flag.Int("repeat", 1, "run this many sets of end-to-end passes and compare them against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (go run ./bench)")
		os.Exit(2)
	}
	if *secs <= 0 || *repeat < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "bench: want -seconds > 0, -repeat >= 1, -trace 0|1|both")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *secs, outDir: traceDir}
	var selected []workload
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	fmt.Printf("# faasbatch bench %s\n", stamp(o))
	limit := 60*time.Second + 4*o.window()

	if *repeat > 1 {
		os.Exit(repeatCheck(selected, o, *repeat, limit))
	}
	allOK := true
	for _, w := range selected {
		t := guard(w.name, limit)
		if *trace != "1" {
			_, ok, err := endToEndPass(os.Stdout, w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			allOK = allOK && ok
		}
		if *trace != "0" {
			ok, err := perLayerPass(os.Stdout, w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			allOK = allOK && ok
		}
		t.Stop()
	}
	if !allOK {
		os.Exit(1)
	}
}
