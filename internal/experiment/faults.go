package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/workload"
)

// RunFaultSweep measures degradation under injected faults: the I/O
// workload replayed under PolicyVanilla and PolicyFaaSBatch while every
// node/runner fault kind (boot failures, mid-batch container crashes,
// inflated cold starts) fires at a swept rate. The paper's Inline-Parallel
// Producer maps a whole window group onto one container (§III-C), so one
// crash takes out an entire batch — a blast radius Vanilla's
// one-container-per-invocation model never had. This sweep makes that
// trade visible: how much latency FaaSBatch's re-batching retry path
// gives back at each fault rate, and whether anything is ever lost
// (completed + failed must equal the trace length; failures appear only
// when the bounded retry budget is truly exhausted).
//
// Fault injection is seeded off the run seed: the same seed reproduces
// the same fault schedule, making the degradation figure deterministic.
func RunFaultSweep(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	rates := []float64{0, 0.02, 0.05, 0.10}
	tbl := NewTable(
		"Fault sweep — degradation under injected container faults (I/O workload)",
		"policy", "fault rate", "completed", "failed", "retries", "crashes", "boot fails",
		"total p50", "total p90", "containers")
	for _, p := range []PolicyKind{PolicyVanilla, PolicyFaaSBatch} {
		for _, rate := range rates {
			cfg := Config{Policy: p, Trace: tr, Seed: opts.Seed}
			if rate > 0 {
				cfg.Chaos = &chaos.Config{
					Rates: map[chaos.Kind]float64{
						chaos.BootFailure:    rate,
						chaos.ContainerCrash: rate,
						chaos.SlowColdStart:  rate,
					},
				}
			}
			res, err := Run(cfg)
			if err != nil {
				return fmt.Errorf("fault sweep %v @ %.0f%%: %w", p, rate*100, err)
			}
			if len(res.Records) != tr.Len() {
				return fmt.Errorf("fault sweep %v @ %.0f%%: %d/%d invocations accounted for",
					p, rate*100, len(res.Records), tr.Len())
			}
			tot := res.CDF(EndToEnd)
			tbl.AddRow(p.String(), fmt.Sprintf("%.0f%%", rate*100),
				len(res.Records)-res.Failures, res.Failures, res.Retries,
				res.Crashes, res.BootFailures,
				tot.P(0.5).Round(time.Millisecond), tot.P(0.9).Round(time.Millisecond),
				res.TotalContainers)
		}
	}
	return tbl.Render(w)
}
