package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/node"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// Options tunes a figure reproduction run.
type Options struct {
	// Scale multiplies workload sizes; 1.0 reproduces the paper's scale.
	// Tests and quick benches use smaller scales.
	Scale float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultOptions reproduces the paper's scale.
func DefaultOptions() Options { return Options{Scale: 1.0, Seed: 13} }

// scaled applies the scale factor with a floor of 1.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Figure is one reproducible table/figure of the paper.
type Figure struct {
	// ID is the registry key (e.g. "fig11").
	ID string
	// Title describes the artefact.
	Title string
	// Run regenerates the artefact, writing tables to w.
	Run func(w io.Writer, opts Options) error
}

// Figures lists every reproduction in paper order.
func Figures() []Figure {
	return []Figure{
		{ID: "fig1", Title: "Fig. 1 — Sharing vs Monopoly execution time (fib(30), concurrency 10–640)", Run: RunFig1},
		{ID: "fig2", Title: "Fig. 2 — Day-long invocation pattern of three hot functions", Run: RunFig2},
		{ID: "fig3", Title: "Fig. 3 — CDF of blob re-access inter-arrival times (14 days)", Run: RunFig3},
		{ID: "fig4", Title: "Fig. 4 — S3 client creation time vs in-container concurrency", Run: RunFig4},
		{ID: "fig5", Title: "Fig. 5 — Container memory vs concurrent client creations", Run: RunFig5},
		{ID: "fig9", Title: "Fig. 9 — Probability distribution of function durations", Run: RunFig9},
		{ID: "fig10", Title: "Fig. 10 — Invocation pattern of the generated workload", Run: RunFig10},
		{ID: "fig11", Title: "Fig. 11 — Latency CDFs, CPU-intensive functions, four policies", Run: RunFig11},
		{ID: "fig12", Title: "Fig. 12 — Latency CDFs, I/O functions, four policies", Run: RunFig12},
		{ID: "fig13", Title: "Fig. 13 — Resource cost vs dispatch interval, CPU-intensive functions", Run: RunFig13},
		{ID: "fig14", Title: "Fig. 14 — Resource cost vs dispatch interval, I/O functions", Run: RunFig14},
		{ID: "headline", Title: "§V headline — paper-reported vs measured improvement ratios", Run: RunHeadline},
		{ID: "ablation-multiplex", Title: "Ablation — Resource Multiplexer isolated from batching (I/O workload)", Run: RunAblationMultiplex},
		{ID: "ablation-keepalive", Title: "Ablation — container keep-alive sweep (memory vs cold starts)", Run: RunAblationKeepAlive},
		{ID: "ablation-burstiness", Title: "Ablation — bursty vs steady arrivals of the same volume", Run: RunAblationBurstiness},
		{ID: "sensitivity", Title: "Sensitivity — calibration perturbations vs headline orderings", Run: RunSensitivity},
		{ID: "ext-faults", Title: "Extension — degradation under injected container faults", Run: RunFaultSweep},
		{ID: "ext-cluster", Title: "Extension — FaaSBatch cluster scale-out and routing strategies", Run: RunExtensionCluster},
		{ID: "ext-prewarm", Title: "Extension — predictive pre-warming for FaaSBatch", Run: RunExtensionPrewarm},
		{ID: "ext-chains", Title: "Extension — sequential function chains across policies", Run: RunExtensionChains},
		{ID: "ext-adaptive", Title: "Extension — adaptive vs fixed dispatch windows (bursty and sparse traffic)", Run: RunExtensionAdaptive},
	}
}

// FigureByID looks a figure up by registry key.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// warmNode builds a node plus runner with pre-warmed containers for the
// motivation experiments (the paper warms containers up before firing).
func warmNode(seed int64, containers int, fn string) (*sim.Engine, *node.Node, *fnruntime.Runner, []*node.Container, error) {
	eng := sim.New(seed)
	cfg := node.DefaultConfig()
	nd, err := node.New(eng, cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	runner := fnruntime.NewRunner(eng)
	warmed := make([]*node.Container, 0, containers)
	for i := 0; i < containers; i++ {
		nd.Acquire(fn, node.AcquireOptions{}, node.AcquireFunc(func(r node.AcquireResult) {
			warmed = append(warmed, r.Container)
		}))
	}
	eng.Run()
	if len(warmed) != containers {
		return nil, nil, nil, nil, fmt.Errorf("experiment: warmed %d/%d containers", len(warmed), containers)
	}
	return eng, nd, runner, warmed, nil
}

// RunFig1 reproduces the Sharing-vs-Monopoly motivation measurement: N
// concurrent fib(30) invocations inside one container versus across N
// containers, all warm.
func RunFig1(w io.Writer, opts Options) error {
	spec, err := workload.FibSpec(30)
	if err != nil {
		return err
	}
	tbl := NewTable(
		"Fig. 1 — execution time of N concurrent fib(30) invocations (warm containers)",
		"concurrency", "sharing (1 container)", "monopoly (N containers)", "sharing/monopoly")
	for _, conc := range []int{10, 20, 40, 80, 160, 320, 640} {
		n := opts.scaled(conc)
		sharing, err := fig1Makespan(opts.Seed, n, true, spec)
		if err != nil {
			return err
		}
		monopoly, err := fig1Makespan(opts.Seed, n, false, spec)
		if err != nil {
			return err
		}
		ratio := float64(sharing) / float64(monopoly)
		tbl.AddRow(n, sharing.Round(time.Millisecond), monopoly.Round(time.Millisecond), ratio)
	}
	return tbl.Render(w)
}

// fig1Makespan measures the completion time of n concurrent invocations,
// either sharing one warm container or one warm container each.
func fig1Makespan(seed int64, n int, sharing bool, spec workload.Spec) (time.Duration, error) {
	containers := n
	if sharing {
		containers = 1
	}
	eng, _, runner, warmed, err := warmNode(seed, containers, spec.Name)
	if err != nil {
		return 0, err
	}
	start := eng.Now()
	var last sim.Time
	for i := 0; i < n; i++ {
		c := warmed[0]
		if !sharing {
			c = warmed[i]
		}
		inv := fnruntime.NewInvocation(int64(i), spec, start)
		if err := runner.Execute(inv, c, fnruntime.CompleteFunc(func(*fnruntime.Invocation) { last = eng.Now() })); err != nil {
			return 0, err
		}
	}
	eng.Run()
	return last.Sub(start), nil
}

// RunFig2 reproduces the day-long invocation patterns of three hot Azure
// functions, printed as per-hour buckets.
func RunFig2(w io.Writer, opts Options) error {
	cfg := trace.DefaultDailyConfig()
	cfg.Seed = opts.Seed
	cfg.MinPerFn = opts.scaled(cfg.MinPerFn)
	tr, err := trace.SynthesizeDaily(cfg)
	if err != nil {
		return err
	}
	tbl := NewTable(
		"Fig. 2 — invocations per hour over one day (bursty, time-localised)",
		"function", "total", "peak/min", "active-min", "hourly profile")
	for _, fn := range tr.Functions() {
		minutes := trace.MinuteCounts(tr, fn)
		total, peak, active := 0, 0, 0
		hours := make([]int, 24)
		for i, c := range minutes {
			total += c
			if c > peak {
				peak = c
			}
			if c > 0 {
				active++
			}
			hours[i/60] += c
		}
		profile := ""
		for _, h := range hours {
			profile += fmt.Sprintf("%d ", h)
		}
		tbl.AddRow(fn, total, peak, active, profile)
	}
	return tbl.Render(w)
}

// RunFig3 reproduces the blob inter-arrival-time CDF: one row per
// threshold, with the merged curve and the min/max across the 14 daily
// curves.
func RunFig3(w io.Writer, opts Options) error {
	perDay := opts.scaled(20_000)
	days, err := trace.GenerateBlobDays(opts.Seed, 14, perDay)
	if err != nil {
		return err
	}
	merged := NewCDF(trace.MergeBlobDays(days))
	daily := make([]CDF, len(days))
	for i, d := range days {
		daily[i] = NewCDF(d.IaTs)
	}
	tbl := NewTable(
		"Fig. 3 — CDF of blob re-access inter-arrival time (14 days, merged + per-day spread)",
		"IaT <=", "merged CDF", "per-day min", "per-day max")
	for _, th := range []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second, 100 * time.Second, 1000 * time.Second,
	} {
		lo, hi := 1.0, 0.0
		for _, c := range daily {
			f := c.At(th)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		tbl.AddRow(th, merged.At(th), lo, hi)
	}
	return tbl.Render(w)
}

// fig45Batch runs k simultaneous I/O invocations in one warm container
// without a multiplexer and reports the batch creation elapsed time and
// the peak client memory.
func fig45Batch(seed int64, k int) (elapsed time.Duration, clientMemPeak int64, err error) {
	spec := workload.IOSpec("s3func")
	eng, nd, runner, warmed, err := warmNode(seed, 1, spec.Name)
	if err != nil {
		return 0, 0, err
	}
	baseline := nd.MemUsed()
	start := eng.Now()
	var last sim.Time
	for i := 0; i < k; i++ {
		inv := fnruntime.NewInvocation(int64(i), spec, start)
		if execErr := runner.Execute(inv, warmed[0], fnruntime.CompleteFunc(func(*fnruntime.Invocation) { last = eng.Now() })); execErr != nil {
			return 0, 0, execErr
		}
	}
	eng.Run()
	// Creation dominates; subtract the constant IO+compute tail so the
	// number matches Fig. 4's "time to create clients".
	elapsed = last.Sub(start) - spec.IOWait - spec.Work
	return elapsed, nd.MemPeak() - baseline, nil
}

// RunFig4 reproduces the client-creation blow-up under in-container
// concurrency (66 ms at k=1 to ~3.2 s at k=9).
func RunFig4(w io.Writer, opts Options) error {
	tbl := NewTable(
		"Fig. 4 — time to create S3 clients vs in-container concurrency (no multiplexer)",
		"concurrency", "creation elapsed", "vs k=1")
	base := time.Duration(0)
	for k := 1; k <= 10; k++ {
		elapsed, _, err := fig45Batch(opts.Seed, k)
		if err != nil {
			return err
		}
		if k == 1 {
			base = elapsed
		}
		tbl.AddRow(k, elapsed.Round(time.Millisecond), float64(elapsed)/float64(base))
	}
	return tbl.Render(w)
}

// RunFig5 reproduces the memory growth of duplicate client instances
// (9 MB at k=1 to ~60 MB at k=9).
func RunFig5(w io.Writer, opts Options) error {
	tbl := NewTable(
		"Fig. 5 — container client memory vs concurrent creations (no multiplexer)",
		"concurrency", "client memory (MB)")
	for k := 1; k <= 10; k++ {
		_, mem, err := fig45Batch(opts.Seed, k)
		if err != nil {
			return err
		}
		tbl.AddRow(k, MiB(mem))
	}
	return tbl.Render(w)
}

// RunFig9 validates the workload generator against the published duration
// distribution.
func RunFig9(w io.Writer, opts Options) error {
	n := opts.scaled(1_980_951 / 10) // a tenth of the trace is ample
	gen := workload.NewGenerator(opts.Seed)
	// Count each duration into its half-open Fig. 9 bucket
	// [bounds[i], bounds[i+1]); the last bucket is open-ended. The first
	// bound is zero and durations are positive, so the search never
	// returns index 0.
	bounds := workload.DurationBucketBounds
	counts := make([]int, len(bounds))
	for i := 0; i < n; i++ {
		d, err := workload.FibDuration(gen.SampleFibN())
		if err != nil {
			return err
		}
		counts[sort.Search(len(bounds), func(i int) bool { return bounds[i] > d })-1]++
	}
	tbl := NewTable(
		fmt.Sprintf("Fig. 9 — function duration distribution (%d generated invocations)", n),
		"duration range", "paper", "generated")
	for i, c := range counts {
		label := fmt.Sprintf("[%v, inf)", bounds[i])
		if i+1 < len(bounds) {
			label = fmt.Sprintf("[%v, %v)", bounds[i], bounds[i+1])
		}
		tbl.AddRow(label, workload.DurationBucketWeights[i], float64(c)/float64(n))
	}
	return tbl.Render(w)
}

// RunFig10 reproduces the replayed one-minute invocation pattern.
func RunFig10(w io.Writer, opts Options) error {
	cfg := trace.DefaultBurstConfig(workload.CPUIntensive)
	cfg.Seed = opts.Seed
	cfg.N = opts.scaled(cfg.N)
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		return err
	}
	counts := tr.PerSecondCounts()
	peak, total := 0, 0
	for _, c := range counts {
		total += c
		if c > peak {
			peak = c
		}
	}
	tbl := NewTable(
		fmt.Sprintf("Fig. 10 — invocations per second (%d invocations / %v; peak %d, mean %.1f)",
			total, tr.Span, peak, float64(total)/float64(len(counts))),
		"second", "arrivals")
	for i, c := range counts {
		tbl.AddRow(i, c)
	}
	return tbl.Render(w)
}
