package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
	"faasbatch/internal/pullsched"
)

// NewHTTPHandler exposes a router over HTTP:
//
//	POST /invoke   — body httpapi.RoutedInvokeRequest, reply
//	                 httpapi.RoutedInvokeResponse; 429 + Retry-After when
//	                 admission sheds, 503 when no worker is healthy, and a
//	                 worker's own HTTP error passes through verbatim
//	GET  /stats    — the router's counters, worker table, autoscale and
//	                 policy blocks (see appendStats)
//	GET  /workers  — reply []httpapi.WorkerStatus
//	GET  /metrics  — Prometheus text: router counters, per-worker
//	                 gauges/counters, forward-latency histograms
//	GET  /cluster/metrics — federated Prometheus text: every member
//	                 worker's /metrics scraped and merged (counters and
//	                 histograms sum exactly; gauges are re-emitted per
//	                 member under a worker label) plus faascluster_*
//	                 scrape meta-series
//	GET  /cluster/stats — reply httpapi.ClusterStatsResponse: router
//	                 counters plus a field-wise sum of every member's
//	                 /stats snapshot
//	GET  /healthz  — 200 while at least one worker is up, else 503
//
// Every route is also served under the /v1/ prefix (/v1/invoke,
// /v1/stats, ...) with identical behaviour; the unversioned paths remain
// as aliases for existing clients. See docs/CLUSTER.md.
func NewHTTPHandler(rt *Router) http.Handler {
	return httpapi.NewMux([]httpapi.Route{
		{Path: "/invoke", Method: http.MethodPost, Handler: rt.serveInvoke},
		{Path: "/stats", Method: http.MethodGet, Handler: rt.serveStats},
		{Path: "/workers", Method: http.MethodGet, Handler: rt.serveWorkers},
		{Path: "/metrics", Method: http.MethodGet, Handler: rt.serveMetrics},
		{Path: "/cluster/metrics", Method: http.MethodGet, Handler: rt.serveClusterMetrics},
		{Path: "/cluster/stats", Method: http.MethodGet, Handler: rt.serveClusterStats},
		{Path: "/healthz", Handler: rt.serveHealth},
	})
}

func (rt *Router) serveInvoke(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	req, err := httpapi.DecodeRoutedInvokeRequest(*body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// An inbound traceparent joins the router's route/forward spans —
	// and, propagated onward, the worker's spans — to the caller's trace.
	bufp := httpapi.LineBuffer()
	line, echo, err := rt.invokeLine(r.Context(), req, httpapi.InboundTrace(r), (*bufp)[:0])
	if err != nil {
		httpapi.Recycle(bufp)
		writeInvokeError(w, err)
		return
	}
	httpapi.EchoTrace(w, echo)
	httpapi.WriteLine(w, r, rt.logger, bufp, line)
	// The payload aliased the body until the forward copied it onto the
	// wire; recycled on the normal return only (httpapi.ReadBody).
	httpapi.Recycle(body)
}

func (rt *Router) serveStats(w http.ResponseWriter, r *http.Request) {
	bufp := httpapi.LineBuffer()
	httpapi.WriteLine(w, r, rt.logger, bufp, rt.appendStats((*bufp)[:0]))
}

func (rt *Router) serveWorkers(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, r, rt.logger, http.StatusOK, rt.reg.Snapshot())
}

func (rt *Router) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", httpapi.PromContentType)
	rt.writeMetrics(w)
}

func (rt *Router) serveClusterMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", httpapi.PromContentType)
	rt.writeClusterMetrics(r.Context(), w)
}

func (rt *Router) serveClusterStats(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, r, rt.logger, http.StatusOK, rt.clusterStats(r.Context()))
}

func (rt *Router) serveHealth(w http.ResponseWriter, r *http.Request) {
	up := rt.reg.UpCount()
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"status\":%q,\"workersUp\":%d}\n", healthWord(up), up)
}

// retryAfterSeconds renders a backoff delay as a Retry-After value:
// rounded UP to whole seconds and never below 1. The header has
// one-second resolution, so truncation (int(d.Seconds())) turned any
// sub-second backoff into "Retry-After: 0" — an instruction to retry
// immediately, the opposite of shedding load.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// healthWord maps the up-worker count to a health status word.
func healthWord(up int) string {
	if up == 0 {
		return "no-workers"
	}
	return "ok"
}

// writeInvokeError maps an Invoke error onto the HTTP surface.
func writeInvokeError(w http.ResponseWriter, err error) {
	var overload *OverloadError
	if errors.As(err, &overload) {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(overload.RetryAfter), 10))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if errors.Is(err, ErrNoWorkers) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var pass *PassThroughError
	if errors.As(err, &pass) {
		http.Error(w, pass.Body, pass.Status)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// snapshot is what one /stats or /metrics scrape reads of the router and
// its registry, taken once so every row of a reply agrees.
type snapshot struct {
	Stats
	markDowns, markUps             int64
	workersUp                      int
	imbalance                      float64
	ready, draining, down, standby int
}

func (rt *Router) snapshot() snapshot {
	s := snapshot{Stats: rt.Stats(), workersUp: rt.reg.UpCount(), imbalance: rt.ForwardImbalance()}
	s.markDowns, s.markUps = rt.reg.Transitions()
	s.ready, s.draining, s.down, s.standby = rt.reg.Counts()
	return s
}

// The router's own series. /metrics and /stats list the same rows in
// different orders (the scrape counters sit before the health rows on
// /metrics and after them on /stats), hence three tables.
var (
	forwardSeries = []obs.Series[snapshot]{
		{Name: "faasrouter_routed_total", Kind: obs.Counter, Help: "Invocations admitted past admission control.", Key: "routed", Int: func(s *snapshot) int64 { return s.Routed }},
		{Name: "faasrouter_completed_total", Kind: obs.Counter, Help: "Invocations that returned a worker response.", Key: "completed", Int: func(s *snapshot) int64 { return s.Completed }},
		{Name: "faasrouter_forwarded_total", Kind: obs.Counter, Help: "Forward attempts that reached a worker.", Key: "forwarded", Int: func(s *snapshot) int64 { return s.Forwarded }},
		{Name: "faasrouter_retries_total", Kind: obs.Counter, Help: "Extra forward attempts after transient failures.", Key: "retries", Int: func(s *snapshot) int64 { return s.Retries }},
		{Name: "faasrouter_failovers_total", Kind: obs.Counter, Help: "Forward attempts moved to a different ring replica.", Key: "failovers", Int: func(s *snapshot) int64 { return s.Failovers }},
		{Name: "faasrouter_shed_total", Kind: obs.Counter, Help: "Invocations rejected by admission control.", Key: "shed", Int: func(s *snapshot) int64 { return s.Shed }},
		{Name: "faasrouter_no_workers_total", Kind: obs.Counter, Help: "Invocations rejected with no healthy worker.", Key: "noWorkers", Int: func(s *snapshot) int64 { return s.NoWorkers }},
		{Name: "faasrouter_errors_total", Kind: obs.Counter, Help: "Invocations that exhausted their forward attempts.", Key: "errors", Int: func(s *snapshot) int64 { return s.Errors }},
		{Name: "faasrouter_probes_total", Kind: obs.Counter, Help: "Health probes sent.", Key: "probes", Int: func(s *snapshot) int64 { return s.Probes }},
		{Name: "faasrouter_probe_failures_total", Kind: obs.Counter, Help: "Health probes that failed.", Key: "probeFailures", Int: func(s *snapshot) int64 { return s.ProbeFailures }},
	}
	scrapeSeries = []obs.Series[snapshot]{
		{Name: "faasrouter_scrapes_total", Kind: obs.Counter, Help: "Member scrapes attempted for the cluster view.", Key: "scrapes", Int: func(s *snapshot) int64 { return s.Scrapes }},
		{Name: "faasrouter_scrape_failures_total", Kind: obs.Counter, Help: "Member scrapes that failed.", Key: "scrapeFailures", Int: func(s *snapshot) int64 { return s.ScrapeFailures }},
	}
	healthSeries = []obs.Series[snapshot]{
		{Name: "faasrouter_mark_downs_total", Kind: obs.Counter, Help: "Worker up-to-down transitions.", Key: "markDowns", Int: func(s *snapshot) int64 { return s.markDowns }},
		{Name: "faasrouter_mark_ups_total", Kind: obs.Counter, Help: "Worker down-to-up transitions.", Key: "markUps", Int: func(s *snapshot) int64 { return s.markUps }},
		{Name: "faasrouter_workers_up", Kind: obs.Gauge, Help: "Workers currently marked up.", Key: "workersUp", Int: func(s *snapshot) int64 { return int64(s.workersUp) }},
		{Name: "faasrouter_forward_imbalance", Kind: obs.Gauge, Help: "Max/mean of per-worker forwarded counts.", Key: "forwardImbalance", Float: func(s *snapshot) float64 { return s.imbalance }},
	}
)

// workerSeries are the per-worker families of /metrics, one sample per
// row of the worker table under a worker label.
var workerSeries = []obs.Series[httpapi.WorkerStatus]{
	{Name: "faasrouter_worker_forwarded_total", Kind: obs.Counter, Help: "Invocations served per worker.", Int: func(w *httpapi.WorkerStatus) int64 { return w.Forwarded }},
	{Name: "faasrouter_worker_up", Kind: obs.Gauge, Help: "Worker liveness (1 = up).", Int: func(w *httpapi.WorkerStatus) int64 {
		if w.State == WorkerUp.String() {
			return 1
		}
		return 0
	}},
	{Name: "faasrouter_worker_inflight", Kind: obs.Gauge, Help: "Outstanding forwards per worker.", Int: func(w *httpapi.WorkerStatus) int64 { return w.Inflight }},
}

// fleetSeries are the registry lifecycle gauges, on /metrics and
// /cluster/metrics whether or not the autoscaler runs.
var fleetSeries = []obs.Series[snapshot]{
	{Name: "faascluster_workers_ready", Kind: obs.Gauge, Help: "Workers up and owning ring segments.", Int: func(s *snapshot) int64 { return int64(s.ready) }},
	{Name: "faascluster_workers_draining", Kind: obs.Gauge, Help: "Workers finishing in-flight forwards before retiring.", Int: func(s *snapshot) int64 { return int64(s.draining) }},
	{Name: "faascluster_workers_down", Kind: obs.Gauge, Help: "Workers marked down by health probes.", Int: func(s *snapshot) int64 { return int64(s.down) }},
	{Name: "faascluster_workers_standby", Kind: obs.Gauge, Help: "Workers administratively retired from the ring.", Int: func(s *snapshot) int64 { return int64(s.standby) }},
}

// autoscaleSeries is the control loop's exposition — target vs actual
// workers, forecast demand, scale events, drain durations — and the
// /stats autoscale block, over the controller's own snapshot.
var autoscaleSeries = []obs.Series[autoscale.Status]{
	{Name: "faasbatch_autoscale_target_workers", Kind: obs.Gauge, Help: "Control loop's desired ready-worker count.", Key: "target", Float: func(a *autoscale.Status) float64 { return float64(a.Target) }},
	{Name: "faasbatch_autoscale_ready_workers", Kind: obs.Gauge, Help: "Workers ready per the controller's lifecycle view.", Key: "ready", Float: func(a *autoscale.Status) float64 { return float64(a.Ready) }},
	{Name: "faasbatch_autoscale_warming_workers", Kind: obs.Gauge, Help: "Workers pre-warming ahead of predicted load.", Key: "warming", Float: func(a *autoscale.Status) float64 { return float64(a.Warming) }},
	{Name: "faasbatch_autoscale_draining_workers", Kind: obs.Gauge, Help: "Workers draining toward retirement.", Key: "draining", Float: func(a *autoscale.Status) float64 { return float64(a.Draining) }},
	{Key: "standby", Help: "Workers the controller holds retired.", Int: func(a *autoscale.Status) int64 { return int64(a.Retired) }},
	{Name: "faasbatch_autoscale_forecast_demand", Kind: obs.Gauge, Help: "Short-horizon demand forecast (invocations/second).", Key: "forecast", Float: func(a *autoscale.Status) float64 { return a.Forecast }},
	{Name: "faasbatch_autoscale_prewarm_floor_workers", Kind: obs.Gauge, Help: "Pre-warm floor from the burst-rate histogram.", Key: "floor", Float: func(a *autoscale.Status) float64 { return float64(a.Floor) }},
	{Name: "faasbatch_autoscale_scale_ups_total", Kind: obs.Counter, Help: "Provision and reclaim decisions.", Key: "scaleUps", Float: func(a *autoscale.Status) float64 { return float64(a.ScaleUps) }},
	{Name: "faasbatch_autoscale_scale_downs_total", Kind: obs.Counter, Help: "Drain decisions.", Key: "scaleDowns", Float: func(a *autoscale.Status) float64 { return float64(a.ScaleDowns) }},
	{Name: "faasbatch_autoscale_wakes_total", Kind: obs.Counter, Help: "Scale-from-zero wake-ups.", Key: "wakes", Float: func(a *autoscale.Status) float64 { return float64(a.Wakes) }},
	{Name: "faasbatch_autoscale_drains_completed_total", Kind: obs.Counter, Help: "Graceful drains completed.", Key: "drained", Float: func(a *autoscale.Status) float64 { return float64(a.Drained) }},
	{Name: "faasbatch_autoscale_drain_seconds_total", Kind: obs.Counter, Help: "Summed graceful drain durations.", Key: "drainSeconds", Float: func(a *autoscale.Status) float64 { return a.DrainTime.Seconds() }},
}

// pullSeries is the pull policy's exposition — queue and lease occupancy
// plus the lease-protocol counters — and the /stats policy block, over
// the decision core's own snapshot. /metrics carries it only under the
// pull policy (hash has no queues to report).
var pullSeries = []obs.Series[pullsched.Stats]{
	{Name: "faasrouter_pull_queued", Kind: obs.Gauge, Help: "Invocations waiting in per-function pull queues.", Key: "queued", Float: func(p *pullsched.Stats) float64 { return float64(p.Queued) }},
	{Name: "faasrouter_pull_leases", Kind: obs.Gauge, Help: "Invocations currently leased to workers.", Key: "leases", Float: func(p *pullsched.Stats) float64 { return float64(p.Leases) }},
	{Name: "faasrouter_pull_granted_total", Kind: obs.Counter, Help: "Leases handed out, re-grants included.", Key: "granted", Float: func(p *pullsched.Stats) float64 { return float64(p.Granted) }},
	{Name: "faasrouter_pull_requeues_total", Kind: obs.Counter, Help: "Failed or expired leases returned to their queue.", Key: "requeues", Float: func(p *pullsched.Stats) float64 { return float64(p.Requeues) }},
	{Name: "faasrouter_pull_shed_total", Kind: obs.Counter, Help: "Arrivals refused at the pull queue-depth bound.", Key: "shed", Float: func(p *pullsched.Stats) float64 { return float64(p.Shed) }},
}

// writeFleetGauges renders the registry lifecycle gauges, the pull
// policy's series under the pull policy and — when the control loop runs
// — the autoscale series. Shared by /metrics and /cluster/metrics so
// scaling state is visible on both surfaces.
func (rt *Router) writeFleetGauges(w io.Writer, snap *snapshot) {
	obs.WriteSeries(w, fleetSeries, snap)
	if rt.policy.Name() == PolicyPull {
		pst := rt.policy.Stats()
		obs.WriteSeries(w, pullSeries, &pst)
	}
	if rt.scaler != nil {
		ast := rt.scaler.status()
		obs.WriteSeries(w, autoscaleSeries, &ast)
	}
}

// appendStats appends the /stats document: the router's rows, the worker
// table, then the autoscale block (only when the control loop runs) and
// the policy block.
func (rt *Router) appendStats(dst []byte) []byte {
	snap := rt.snapshot()
	dst = obs.AppendJSONFields(append(dst, '{'), forwardSeries, &snap)
	dst = obs.AppendJSONFields(dst, healthSeries, &snap)
	dst = obs.AppendJSONFields(dst, scrapeSeries, &snap)
	workers, err := json.Marshal(rt.reg.Snapshot())
	if err != nil {
		workers = []byte("null") // unreachable: the rows are plain strings and integers
	}
	dst = append(append(dst, `,"workers":`...), workers...)
	if rt.scaler != nil {
		ast := rt.scaler.status()
		dst = append(obs.AppendJSONFields(append(dst, `,"autoscale":{`...), autoscaleSeries, &ast), '}')
	}
	pst := rt.policy.Stats()
	dst = strconv.AppendQuote(append(dst, `,"policy":{"policy":`...), rt.policy.Name())
	return append(obs.AppendJSONFields(dst, pullSeries, &pst), '}', '}')
}

// writeMetrics renders the router's Prometheus exposition.
func (rt *Router) writeMetrics(w io.Writer) {
	snap := rt.snapshot()
	obs.WriteSeries(w, forwardSeries, &snap)
	obs.WriteSeries(w, scrapeSeries, &snap)
	obs.WriteSeries(w, healthSeries, &snap)
	obs.WriteLabeledSeries(w, workerSeries, rt.reg.Snapshot(), "worker", func(wk *httpapi.WorkerStatus) string { return wk.ID })
	rt.writeFleetGauges(w, &snap)
	obs.WriteRuntimeGauges(w, "faasrouter")
	rt.metrics.WritePrometheus(w)
}
