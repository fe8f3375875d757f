// report.go defines the versioned run report and its serialisations.
//
// The reproducibility contract: Body is a pure function of (scenario,
// seed) in sim mode. Everything in it is slices, strings and integers —
// no maps (Go map iteration would scramle nothing here because
// encoding/json sorts map keys, but slices keep the report's order the
// runner's order), no floats derived from timing, no wall-clock values.
// GeneratedAt and BodySHA256 live outside Body: two runs of the same
// scenario and seed must produce byte-identical marshalled bodies, and
// the hash is how cmd/faasstress -repeat and the determinism regression
// test check that without diffing whole files.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"math/bits"
	"slices"
	"time"
)

// ReportVersion is bumped whenever Body's shape changes, so archived
// reports stay interpretable. Version 2 added the per-sample
// workers_ready gauge and the autoscale block; version 3 added the
// routing block (pull-policy counters and the load-spread CV).
const ReportVersion = 3

// LatencySummary is a latency distribution in integer microseconds.
type LatencySummary struct {
	P50Micros  int64 `json:"p50_micros"`
	P90Micros  int64 `json:"p90_micros"`
	P99Micros  int64 `json:"p99_micros"`
	MaxMicros  int64 `json:"max_micros"`
	MeanMicros int64 `json:"mean_micros"`
}

// summarize computes a LatencySummary from raw microsecond samples. It
// reorders the slice rather than sorting it: p99 is selected in place,
// then p90 among the samples up to it, then p50 among those up to that,
// and the max and the mean come from one pass. Each quantile is the value
// a sort would put at index q*(n-1).
func summarize(micros []int64) LatencySummary {
	n := len(micros)
	if n == 0 {
		return LatencySummary{}
	}
	var sum int64
	top := micros[0]
	for _, v := range micros {
		sum += v
		top = max(top, v)
	}
	// Each selection leaves the samples up to its index the smallest ones,
	// so the next one looks among them alone.
	prefix := micros
	quantile := func(q float64) int64 {
		k := int(q * float64(n-1))
		selectNth(prefix, k)
		prefix = prefix[:k+1]
		return prefix[k]
	}
	return LatencySummary{
		P99Micros:  quantile(0.99),
		P90Micros:  quantile(0.90),
		P50Micros:  quantile(0.50),
		MaxMicros:  top,
		MeanMicros: sum / int64(n),
	}
}

// selectNth reorders s so that s[k] holds the value sorting s would put
// there, with nothing greater before it and nothing smaller after it. It
// narrows the window holding k by three-way partitions around a
// median-of-three pivot, so a run of equal samples settles in one pass,
// and sorts the window once it is small or has taken more partitions than
// a balanced descent would.
func selectNth(s []int64, k int) {
	lo, hi := 0, len(s)
	for budget := 2 * bits.Len(uint(len(s))); ; budget-- {
		if hi-lo <= 16 || budget == 0 {
			slices.Sort(s[lo:hi])
			return
		}
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		// s[lo:lt] < pivot, s[lt:i] == pivot, s[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case v < pivot:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > pivot:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// median3 returns the middle value of a, b and c.
func median3(a, b, c int64) int64 {
	return max(min(a, b), min(max(a, b), c))
}

// PhaseReport is one phase's outcome.
type PhaseReport struct {
	Name      string  `json:"name"`
	Arrival   string  `json:"arrival"`
	Rate      float64 `json:"rate"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	Retries   int64   `json:"retries"`
	// Total and Sched summarise the end-to-end and scheduling latency of
	// the invocations *submitted* during the phase (they may complete
	// later; attribution is by submission).
	Total LatencySummary `json:"total_latency"`
	Sched LatencySummary `json:"sched_latency"`
}

// Totals aggregates the whole run.
type Totals struct {
	Submitted int64          `json:"submitted"`
	Completed int64          `json:"completed"`
	Failed    int64          `json:"failed"`
	Retries   int64          `json:"retries"`
	Total     LatencySummary `json:"total_latency"`
}

// SchedStats sums the per-node FaaSBatch scheduler counters. A sim report
// carries the three dispatch counters for adaptive runs only, which keeps
// fixed-interval report bodies and their hashes comparable across
// versions.
type SchedStats struct {
	Submitted          int64 `json:"submitted"`
	Groups             int64 `json:"groups"`
	MaxGroupSize       int   `json:"max_group_size"`
	Retries            int64 `json:"retries"`
	Failed             int64 `json:"failed"`
	GroupRedispatches  int64 `json:"group_redispatches"`
	FastPathDispatches int64 `json:"fast_path_dispatches"`
	EarlyCloses        int64 `json:"early_closes"`
	WindowDispatches   int64 `json:"window_dispatches"`
}

// FleetStats sums container-lifecycle counters across the fleet.
type FleetStats struct {
	ContainersCreated int64 `json:"containers_created"`
	ColdStarts        int64 `json:"cold_starts"`
	WarmStarts        int64 `json:"warm_starts"`
	Evictions         int64 `json:"evictions"`
	Crashes           int64 `json:"crashes"`
	BootFailures      int64 `json:"boot_failures"`
	SlowBoots         int64 `json:"slow_boots"`
	PeakMemBytes      int64 `json:"peak_mem_bytes"`
}

// ChaosCount is one fault kind's injection total (sorted by kind name).
type ChaosCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// Event is one control-plane occurrence on the run timeline.
type Event struct {
	TimeMillis int64 `json:"time_millis"`
	// Kind is "phase", "chaos", "outage-down", "outage-up", "scale".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Sample is one metrics snapshot.
type Sample struct {
	TimeMillis     int64 `json:"time_millis"`
	Submitted      int64 `json:"submitted"`
	Completed      int64 `json:"completed"`
	Inflight       int64 `json:"inflight"`
	LiveContainers int64 `json:"live_containers"`
	WorkersDown    int   `json:"workers_down"`
	// WorkersReady counts workers receiving newly routed work — the
	// fleet minus outage-downed and autoscale-retired workers. The
	// sample-over-sample trajectory is the scaling curve.
	WorkersReady int `json:"workers_ready"`
}

// AutoscaleReport summarises the control plane's run (present only when
// the scenario declares an autoscale block). All fields are integers so
// the body stays byte-deterministic.
type AutoscaleReport struct {
	MinWorkers int `json:"min_workers"`
	MaxWorkers int `json:"max_workers"`
	// PeakReady is the highest workers_ready seen in any sample;
	// FinalReady is the count at quiescence (0 after scale-to-zero).
	PeakReady  int   `json:"peak_ready"`
	FinalReady int   `json:"final_ready"`
	ScaleUps   int64 `json:"scale_ups"`
	ScaleDowns int64 `json:"scale_downs"`
	Wakes      int64 `json:"wakes"`
	Drained    int64 `json:"drained"`
	// DrainMillis sums completed graceful-drain durations.
	DrainMillis int64 `json:"drain_millis"`
	// BusyWorkerMillis integrates provisioned worker-time — the elastic
	// fleet's capacity cost, comparable against workers x makespan for a
	// static fleet.
	BusyWorkerMillis int64 `json:"busy_worker_millis"`
}

// RoutingReport summarises the routing-policy run (present only when
// the scenario declares a routing block). All fields are integers so
// the body stays byte-deterministic; LoadCVMilli is the coefficient of
// variation of per-worker routed counts in thousandths.
type RoutingReport struct {
	Policy     string `json:"policy"`
	QueueDepth int    `json:"queue_depth"`
	// Granted, Requeues and Shed snapshot the pull core's counters (all
	// zero under the hash policy).
	Granted  int64 `json:"granted"`
	Requeues int64 `json:"requeues"`
	Shed     int64 `json:"shed"`
	// LoadCVMilli is round(1000 x stddev/mean) over per-worker routed
	// invocation counts — the load-spread figure of merit.
	LoadCVMilli int64 `json:"load_cv_milli"`
}

// Body is the deterministic payload of a report.
type Body struct {
	Version        int               `json:"version"`
	Scenario       string            `json:"scenario"`
	Mode           string            `json:"mode"`
	Seed           int64             `json:"seed"`
	Workers        int               `json:"workers"`
	Zones          int               `json:"zones"`
	Balancing      string            `json:"balancing"`
	Phases         []PhaseReport     `json:"phases"`
	Totals         Totals            `json:"totals"`
	Scheduler      SchedStats        `json:"scheduler"`
	Fleet          FleetStats        `json:"fleet"`
	Autoscale      *AutoscaleReport  `json:"autoscale,omitempty"`
	Routing        *RoutingReport    `json:"routing,omitempty"`
	Chaos          []ChaosCount      `json:"chaos"`
	Events         []Event           `json:"events"`
	Samples        []Sample          `json:"samples"`
	Invariants     []InvariantResult `json:"invariants"`
	MakespanMillis int64             `json:"makespan_millis"`
}

// Report wraps a Body with its provenance. GeneratedAt varies run to
// run; BodySHA256 is the determinism fingerprint.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	BodySHA256  string `json:"body_sha256"`
	Body        Body   `json:"body"`
}

// NewReport stamps a body, computing its hash over the canonical
// marshalling.
func NewReport(body Body, now time.Time) (*Report, error) {
	raw, err := body.Marshal()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return &Report{
		GeneratedAt: now.UTC().Format(time.RFC3339),
		BodySHA256:  hex.EncodeToString(sum[:]),
		Body:        body,
	}, nil
}

// Marshal produces the canonical (hashed, diffed) serialisation of the
// body.
func (b *Body) Marshal() ([]byte, error) {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal report body: %w", err)
	}
	return append(raw, '\n'), nil
}

// Marshal serialises the full report.
func (r *Report) Marshal() ([]byte, error) {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal report: %w", err)
	}
	return append(raw, '\n'), nil
}

// htmlReport renders the human-facing summary.
var htmlReport = template.Must(template.New("report").Funcs(template.FuncMap{
	"ms": func(micros int64) string { return fmt.Sprintf("%.2f ms", float64(micros)/1000) },
}).Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>faasstress: {{.Body.Scenario}}</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th { background: #f0f0f0; }
td:first-child, th:first-child { text-align: left; }
.ok { color: #1a7f37; } .fail { color: #cf222e; font-weight: bold; }
</style></head><body>
<h1>{{.Body.Scenario}}</h1>
<p>mode {{.Body.Mode}}, seed {{.Body.Seed}}, {{.Body.Workers}} workers in {{.Body.Zones}} zone(s),
balancing {{.Body.Balancing}}, makespan {{.Body.MakespanMillis}} ms.
Generated {{.GeneratedAt}}; body sha256 <code>{{.BodySHA256}}</code>.</p>

<h2>Invariants</h2>
<table><tr><th>invariant</th><th>verdict</th><th>detail</th></tr>
{{range .Body.Invariants}}<tr><td>{{.Name}}</td>
<td class="{{if .OK}}ok{{else}}fail{{end}}">{{if .OK}}ok{{else}}VIOLATED{{end}}</td>
<td style="text-align:left">{{.Detail}}</td></tr>{{end}}
</table>

<h2>Phases</h2>
<table><tr><th>phase</th><th>arrival</th><th>rate</th><th>submitted</th><th>failed</th>
<th>p50</th><th>p99</th><th>max</th></tr>
{{range .Body.Phases}}<tr><td>{{.Name}}</td><td>{{.Arrival}}</td><td>{{.Rate}}</td>
<td>{{.Submitted}}</td><td>{{.Failed}}</td>
<td>{{ms .Total.P50Micros}}</td><td>{{ms .Total.P99Micros}}</td><td>{{ms .Total.MaxMicros}}</td></tr>{{end}}
</table>

<h2>Totals</h2>
<table><tr><th></th><th>value</th></tr>
<tr><td>submitted</td><td>{{.Body.Totals.Submitted}}</td></tr>
<tr><td>completed</td><td>{{.Body.Totals.Completed}}</td></tr>
<tr><td>failed</td><td>{{.Body.Totals.Failed}}</td></tr>
<tr><td>retries</td><td>{{.Body.Totals.Retries}}</td></tr>
<tr><td>p50 / p99</td><td>{{ms .Body.Totals.Total.P50Micros}} / {{ms .Body.Totals.Total.P99Micros}}</td></tr>
<tr><td>groups</td><td>{{.Body.Scheduler.Groups}}</td></tr>
<tr><td>max group size</td><td>{{.Body.Scheduler.MaxGroupSize}}</td></tr>
<tr><td>containers created</td><td>{{.Body.Fleet.ContainersCreated}}</td></tr>
<tr><td>cold / warm starts</td><td>{{.Body.Fleet.ColdStarts}} / {{.Body.Fleet.WarmStarts}}</td></tr>
<tr><td>crashes / boot failures</td><td>{{.Body.Fleet.Crashes}} / {{.Body.Fleet.BootFailures}}</td></tr>
</table>

{{with .Body.Autoscale}}<h2>Autoscale</h2>
<table><tr><th></th><th>value</th></tr>
<tr><td>workers (min / max)</td><td>{{.MinWorkers}} / {{.MaxWorkers}}</td></tr>
<tr><td>ready (peak / final)</td><td>{{.PeakReady}} / {{.FinalReady}}</td></tr>
<tr><td>scale ups / downs</td><td>{{.ScaleUps}} / {{.ScaleDowns}}</td></tr>
<tr><td>wakes</td><td>{{.Wakes}}</td></tr>
<tr><td>drains completed</td><td>{{.Drained}} ({{.DrainMillis}} ms total)</td></tr>
<tr><td>busy worker-time</td><td>{{.BusyWorkerMillis}} ms</td></tr>
</table>{{end}}

{{with .Body.Routing}}<h2>Routing</h2>
<table><tr><th></th><th>value</th></tr>
<tr><td>policy</td><td>{{.Policy}}</td></tr>
<tr><td>queue depth</td><td>{{.QueueDepth}}</td></tr>
<tr><td>granted / requeues</td><td>{{.Granted}} / {{.Requeues}}</td></tr>
<tr><td>shed</td><td>{{.Shed}}</td></tr>
<tr><td>load spread CV</td><td>{{.LoadCVMilli}} / 1000</td></tr>
</table>{{end}}

{{if .Body.Chaos}}<h2>Chaos</h2>
<table><tr><th>fault kind</th><th>injections</th></tr>
{{range .Body.Chaos}}<tr><td>{{.Kind}}</td><td>{{.Count}}</td></tr>{{end}}
</table>{{end}}

{{if .Body.Events}}<h2>Timeline</h2>
<table><tr><th>t (ms)</th><th>kind</th><th>detail</th></tr>
{{range .Body.Events}}<tr><td>{{.TimeMillis}}</td><td>{{.Kind}}</td>
<td style="text-align:left">{{.Detail}}</td></tr>{{end}}
</table>{{end}}
</body></html>
`))

// WriteHTML renders the report's HTML summary.
func (r *Report) WriteHTML(w io.Writer) error {
	if err := htmlReport.Execute(w, r); err != nil {
		return fmt.Errorf("scenario: render html report: %w", err)
	}
	return nil
}
