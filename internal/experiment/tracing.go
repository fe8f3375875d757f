package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/obs"
)

// Trace emission for simulated runs. A completed fnruntime.Record pins
// each invocation's four latency components to exact virtual timestamps
// (Arrive, then its Breakdown's parts back to back), so spans are
// derived from records after the run rather than collected during it —
// the simulation stays byte-identical with tracing on or off.

var (
	traceDirMu sync.Mutex
	traceDir   string
	traceSeq   int
)

// SetTraceDir directs every subsequent Run to write a Chrome trace-event
// JSON file (run-NNN-<policy>.trace.json) into dir. An empty dir disables
// the sink. Used by faasbench's -trace-dir flag to capture per-figure-run
// traces.
func SetTraceDir(dir string) {
	traceDirMu.Lock()
	defer traceDirMu.Unlock()
	traceDir = dir
	traceSeq = 0
}

// nextTracePath reserves the next trace file name, or "" when the sink is
// disabled.
func nextTracePath(policy string) string {
	traceDirMu.Lock()
	defer traceDirMu.Unlock()
	if traceDir == "" {
		return ""
	}
	traceSeq++
	return filepath.Join(traceDir, fmt.Sprintf("run-%03d-%s.trace.json", traceSeq, policy))
}

// EmitSpans replays completed records into the tracer as decomposition
// spans on the virtual timeline. All four component spans are emitted even
// when zero-length, so a trace consumer can reconstruct every record's
// full decomposition without special-casing warm starts.
func EmitSpans(t *obs.Tracer, recs []fnruntime.Record) {
	for _, r := range recs {
		id := t.Begin()
		if id == 0 {
			continue
		}
		cursor := r.Arrive.Duration()
		for i, d := range r.Parts() {
			t.Record(obs.Span{
				Trace:     id,
				Name:      obs.DecompositionSpans[i],
				Fn:        r.Fn,
				Container: r.Container,
				Attempt:   r.Retries + 1,
				Start:     cursor,
				End:       cursor + d,
			})
			cursor += d
		}
	}
}

// emitRunTrace feeds a finished run into cfg.Tracer (when set) and the
// SetTraceDir sink (when enabled).
func emitRunTrace(cfg Config, res *Result) error {
	if cfg.Tracer != nil {
		EmitSpans(cfg.Tracer, res.Records)
	}
	path := nextTracePath(res.Policy)
	if path == "" {
		return nil
	}
	capacity := 4 * len(res.Records)
	if capacity == 0 {
		capacity = 1
	}
	end := res.Makespan
	t, err := obs.NewTracer(obs.TracerConfig{
		Capacity: capacity,
		Clock:    func() time.Duration { return end },
	})
	if err != nil {
		return fmt.Errorf("experiment: trace sink: %w", err)
	}
	EmitSpans(t, res.Records)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: trace sink: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("experiment: trace sink: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiment: trace sink: %w", err)
	}
	return nil
}
