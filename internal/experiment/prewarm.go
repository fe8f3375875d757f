package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/node"
	"faasbatch/internal/trace"
)

// recurringBurstTrace builds the workload pre-warming targets: bursts of
// one I/O function recurring with gaps longer than the keep-alive, so a
// platform without prediction pays a cold start per burst.
func recurringBurstTrace(opts Options) trace.Trace {
	const bursts = 6
	perBurst := opts.scaled(40)
	gap := 8 * time.Second
	tr := trace.Trace{Name: "recurring-bursts", Span: bursts * gap}
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			tr.Invocations = append(tr.Invocations, trace.Invocation{
				Offset: time.Duration(b)*gap + time.Duration(i)*5*time.Millisecond,
				Fn:     "s3func",
			})
		}
	}
	return tr
}

// RunExtensionPrewarm compares plain FaaSBatch with predictive
// pre-warming (extension) on recurring bursts under a short keep-alive:
// without prediction every burst re-pays the cold start its evicted
// container left behind; the activity horizon re-provisions capacity as
// soon as eviction strikes.
func RunExtensionPrewarm(w io.Writer, opts Options) error {
	tr := recurringBurstTrace(opts)
	ncfg := node.DefaultConfig()
	ncfg.KeepAlive = 2 * time.Second // shorter than the burst gap
	tbl := NewTable(
		fmt.Sprintf("Extension — predictive pre-warming (recurring bursts, keep-alive %v)", ncfg.KeepAlive),
		"variant", "containers", "prewarms", "touches", "cold invocations", "cold p99", "total p99")
	for _, prewarm := range []bool{false, true} {
		res, err := Run(Config{
			Policy:  PolicyFaaSBatch,
			Trace:   tr,
			Seed:    opts.Seed,
			Node:    ncfg,
			Prewarm: prewarm,
		})
		if err != nil {
			return fmt.Errorf("prewarm=%v: %w", prewarm, err)
		}
		label := "faasbatch"
		prewarms, touches := int64(0), int64(0)
		if prewarm {
			label = "faasbatch + prewarm"
			if res.Batch != nil {
				prewarms = res.Batch.Prewarms
				touches = res.Batch.KeepWarmTouches
			}
		}
		coldCount := 0
		for _, r := range res.Records {
			if r.ColdStart > 0 {
				coldCount++
			}
		}
		cold := res.CDF(ColdStart)
		tot := res.CDF(EndToEnd)
		tbl.AddRow(label, res.TotalContainers, prewarms, touches,
			fmt.Sprintf("%d/%d", coldCount, len(res.Records)),
			cold.P(0.99).Round(time.Millisecond),
			tot.P(0.99).Round(time.Millisecond))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nKeep-warm touches pin predicted-active functions' containers across\nkeep-alive eviction, so only the very first burst pays a cold start.")
	return err
}
