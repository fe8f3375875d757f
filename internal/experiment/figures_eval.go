package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// SweepIntervals are the dispatch intervals of the paper's resource-cost
// sweep (§IV "Dispatch Intervals": 0.01 s to 0.5 s).
var SweepIntervals = []time.Duration{
	10 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
}

// latencyPercentiles are the CDF points printed for Figs. 11/12.
var latencyPercentiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99}

// evalTrace builds the evaluation workload: the full 800-invocation burst
// for CPU-intensive functions, its first half for I/O functions (§IV).
func evalTrace(kind workload.Kind, opts Options) (trace.Trace, error) {
	cfg := trace.DefaultBurstConfig(kind)
	cfg.Seed = opts.Seed
	cfg.N = opts.scaled(cfg.N)
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		return trace.Trace{}, err
	}
	if kind == workload.IO {
		tr = tr.Head(cfg.N / 2)
	}
	return tr, nil
}

// runPolicies evaluates all four policies on one trace at one interval,
// deriving Kraken's SLOs from the Vanilla run (§IV).
func runPolicies(tr trace.Trace, interval time.Duration, seed int64, slo map[string]time.Duration) (map[PolicyKind]*Result, map[string]time.Duration, error) {
	if slo == nil {
		derived, err := SLOFromVanilla(Config{Policy: PolicyKraken, Trace: tr, Seed: seed, Interval: interval})
		if err != nil {
			return nil, nil, err
		}
		slo = derived
	}
	out := make(map[PolicyKind]*Result, len(AllPolicies))
	for _, p := range AllPolicies {
		res, err := Run(Config{Policy: p, Trace: tr, Seed: seed, Interval: interval, SLO: slo})
		if err != nil {
			return nil, nil, fmt.Errorf("run %v: %w", p, err)
		}
		out[p] = res
	}
	return out, slo, nil
}

// latencyTables prints the Fig. 11/12 component CDFs.
func latencyTables(w io.Writer, caption string, results map[PolicyKind]*Result) error {
	components := []struct {
		label string
		comp  Component
	}{
		{"(a) scheduling latency", Scheduling},
		{"(b) cold-start latency", ColdStart},
		{"(c) execution latency", Execution},
	}
	for _, c := range components {
		tbl := NewTable(
			fmt.Sprintf("%s %s", caption, c.label),
			"percentile", "vanilla", "sfs", "kraken", "faasbatch")
		cdfs := map[PolicyKind]CDF{}
		for _, p := range AllPolicies {
			cdfs[p] = results[p].CDF(c.comp)
		}
		for _, q := range latencyPercentiles {
			tbl.AddRow(
				fmt.Sprintf("p%02.0f", q*100),
				cdfs[PolicyVanilla].P(q).Round(time.Millisecond),
				cdfs[PolicySFS].P(q).Round(time.Millisecond),
				cdfs[PolicyKraken].P(q).Round(time.Millisecond),
				cdfs[PolicyFaaSBatch].P(q).Round(time.Millisecond),
			)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := plotPolicies(w, fmt.Sprintf("%s %s (CDF, log x-axis)", caption, c.label), cdfs); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	// Kraken's distinguishing curve: execution + queuing.
	tbl := NewTable(
		fmt.Sprintf("%s (c') Kraken: Exec+Queue vs others' execution", caption),
		"percentile", "kraken exec+queue", "vanilla exec", "faasbatch exec")
	kq := results[PolicyKraken].CDF(ExecPlusQueue)
	ve := results[PolicyVanilla].CDF(Execution)
	fe := results[PolicyFaaSBatch].CDF(Execution)
	for _, q := range latencyPercentiles {
		tbl.AddRow(fmt.Sprintf("p%02.0f", q*100),
			kq.P(q).Round(time.Millisecond), ve.P(q).Round(time.Millisecond), fe.P(q).Round(time.Millisecond))
	}
	return tbl.Render(w)
}

// plotPolicies renders the four policies' curves as an ASCII CDF chart.
func plotPolicies(w io.Writer, title string, cdfs map[PolicyKind]CDF) error {
	named := map[string]CDF{}
	order := make([]string, 0, len(AllPolicies))
	for _, p := range AllPolicies {
		named[p.String()] = cdfs[p]
		order = append(order, p.String())
	}
	return PlotCDFs(w, title, order, named)
}

// RunFig11 reproduces the CPU-intensive latency CDFs.
func RunFig11(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.CPUIntensive, opts)
	if err != nil {
		return err
	}
	results, _, err := runPolicies(tr, 200*time.Millisecond, opts.Seed, nil)
	if err != nil {
		return err
	}
	return latencyTables(w, "Fig. 11 — CPU-intensive functions:", results)
}

// RunFig12 reproduces the I/O latency CDFs.
func RunFig12(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	results, _, err := runPolicies(tr, 200*time.Millisecond, opts.Seed, nil)
	if err != nil {
		return err
	}
	return latencyTables(w, "Fig. 12 — I/O functions:", results)
}

// sweep runs every policy across the dispatch-interval sweep.
func sweep(kind workload.Kind, opts Options) (map[time.Duration]map[PolicyKind]*Result, error) {
	tr, err := evalTrace(kind, opts)
	if err != nil {
		return nil, err
	}
	out := make(map[time.Duration]map[PolicyKind]*Result, len(SweepIntervals))
	var slo map[string]time.Duration
	for _, interval := range SweepIntervals {
		results, derived, err := runPolicies(tr, interval, opts.Seed, slo)
		if err != nil {
			return nil, err
		}
		slo = derived
		out[interval] = results
	}
	return out, nil
}

// sweepTables prints the Fig. 13/14 resource-cost tables.
func sweepTables(w io.Writer, caption string, results map[time.Duration]map[PolicyKind]*Result, withClients bool) error {
	type column struct {
		label string
		value func(*Result) any
	}
	tables := []struct {
		label string
		value func(*Result) any
	}{
		{"(a) average system memory (GB)", func(r *Result) any { return GiB(int64(r.AvgMemBytes)) }},
		{"(b) provisioned containers", func(r *Result) any { return r.TotalContainers }},
		{"(c) CPU utilisation (%)", func(r *Result) any { return r.CPUUtil * 100 }},
	}
	if withClients {
		tables = append(tables, column{
			"(d) client memory per invocation (MB)",
			func(r *Result) any { return MiB(int64(r.ClientMemPerInvocation)) },
		})
	}
	for _, tspec := range tables {
		tbl := NewTable(
			fmt.Sprintf("%s %s", caption, tspec.label),
			"interval", "vanilla", "sfs", "kraken", "faasbatch")
		for _, interval := range SweepIntervals {
			row := results[interval]
			tbl.AddRow(interval,
				tspec.value(row[PolicyVanilla]),
				tspec.value(row[PolicySFS]),
				tspec.value(row[PolicyKraken]),
				tspec.value(row[PolicyFaaSBatch]),
			)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RunFig13 reproduces the CPU-intensive resource-cost sweep.
func RunFig13(w io.Writer, opts Options) error {
	results, err := sweep(workload.CPUIntensive, opts)
	if err != nil {
		return err
	}
	return sweepTables(w, "Fig. 13 — CPU-intensive functions:", results, false)
}

// RunFig14 reproduces the I/O resource-cost sweep, including the
// per-client memory footprint (d).
func RunFig14(w io.Writer, opts Options) error {
	results, err := sweep(workload.IO, opts)
	if err != nil {
		return err
	}
	return sweepTables(w, "Fig. 14 — I/O functions:", results, true)
}

// reduction reports the percentage reduction of got versus base.
func reduction(base, got float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - got) / base * 100
}

// RunHeadline compares the paper's §V headline claims with measured
// values from the I/O workload (latency at the default interval, resource
// aggregates across the interval sweep).
func RunHeadline(w io.Writer, opts Options) error {
	results, err := sweep(workload.IO, opts)
	if err != nil {
		return err
	}
	def := results[200*time.Millisecond]

	// Latency reductions: the paper's "up to" is the largest cut across
	// the CDF, so take the max reduction over the printed percentiles.
	maxCut := func(base PolicyKind) float64 {
		bc := def[base].CDF(EndToEnd)
		fc := def[PolicyFaaSBatch].CDF(EndToEnd)
		best := 0.0
		for _, q := range latencyPercentiles {
			cut := reduction(float64(bc.P(q)), float64(fc.P(q)))
			if cut > best {
				best = cut
			}
		}
		return best
	}

	// Resource aggregates across the sweep (the paper's "on average ...
	// with respect to different dispatch intervals").
	avg := func(f func(*Result) float64) map[PolicyKind]float64 {
		out := map[PolicyKind]float64{}
		for _, p := range AllPolicies {
			sum := 0.0
			for _, interval := range SweepIntervals {
				sum += f(results[interval][p])
			}
			out[p] = sum / float64(len(SweepIntervals))
		}
		return out
	}
	containers := avg(func(r *Result) float64 { return float64(r.TotalContainers) })
	clientMB := avg(func(r *Result) float64 { return r.ClientMemPerInvocation / (1 << 20) })
	invocations := float64(len(def[PolicyFaaSBatch].Records))

	// Per-interval reduction ranges, the paper's "X% to Y%" phrasing.
	cutRange := func(base PolicyKind, f func(*Result) float64) string {
		lo, hi := 100.0, -100.0
		for _, interval := range SweepIntervals {
			cut := reduction(f(results[interval][base]), f(results[interval][PolicyFaaSBatch]))
			if cut < lo {
				lo = cut
			}
			if cut > hi {
				hi = cut
			}
		}
		return fmt.Sprintf("%.2f%% to %.2f%%", lo, hi)
	}
	cpuOf := func(r *Result) float64 { return r.CPUUtil }
	memOf := func(r *Result) float64 { return r.AvgMemBytes }

	tbl := NewTable(
		"§V headline — paper-reported vs measured (I/O workload)",
		"metric", "paper", "measured")
	tbl.AddRow("latency cut vs Vanilla", "up to 92.18%", fmt.Sprintf("up to %.2f%%", maxCut(PolicyVanilla)))
	tbl.AddRow("latency cut vs SFS", "up to 89.54%", fmt.Sprintf("up to %.2f%%", maxCut(PolicySFS)))
	tbl.AddRow("latency cut vs Kraken", "up to 90.65%", fmt.Sprintf("up to %.2f%%", maxCut(PolicyKraken)))
	tbl.AddRow("avg containers, Vanilla", "266.25", fmt.Sprintf("%.2f", containers[PolicyVanilla]))
	tbl.AddRow("avg containers, SFS", "273.25", fmt.Sprintf("%.2f", containers[PolicySFS]))
	tbl.AddRow("avg containers, Kraken", "76", fmt.Sprintf("%.2f", containers[PolicyKraken]))
	tbl.AddRow("avg containers, FaaSBatch", "16.5", fmt.Sprintf("%.2f", containers[PolicyFaaSBatch]))
	tbl.AddRow("invocations per FaaSBatch container", "24.39", fmt.Sprintf("%.2f", invocations/containers[PolicyFaaSBatch]))
	tbl.AddRow("container cut vs Vanilla", "93.80%", fmt.Sprintf("%.2f%%", reduction(containers[PolicyVanilla], containers[PolicyFaaSBatch])))
	tbl.AddRow("container cut vs SFS", "93.96%", fmt.Sprintf("%.2f%%", reduction(containers[PolicySFS], containers[PolicyFaaSBatch])))
	tbl.AddRow("container cut vs Kraken", "78.28%", fmt.Sprintf("%.2f%%", reduction(containers[PolicyKraken], containers[PolicyFaaSBatch])))
	tbl.AddRow("CPU util cut vs Vanilla", "81.39% to 91.15%", cutRange(PolicyVanilla, cpuOf))
	tbl.AddRow("CPU util cut vs SFS", "79.89% to 90.33%", cutRange(PolicySFS, cpuOf))
	tbl.AddRow("CPU util cut vs Kraken", "84.76% to 93.12%", cutRange(PolicyKraken, cpuOf))
	tbl.AddRow("memory cut vs Vanilla", "69.72% to 90.39%", cutRange(PolicyVanilla, memOf))
	tbl.AddRow("client memory per invocation, baselines", "~15 MB", fmt.Sprintf("%.2f MB", clientMB[PolicyVanilla]))
	tbl.AddRow("client memory per invocation, FaaSBatch", "0.87 MB", fmt.Sprintf("%.2f MB", clientMB[PolicyFaaSBatch]))
	return tbl.Render(w)
}
