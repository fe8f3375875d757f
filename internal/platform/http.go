package platform

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
)

// statSeries declares every exported platform number once: its /metrics
// series and its /stats key, over one Stats snapshot per scrape. A
// numeric Stats field without a /metrics row fails TestMetricsConformance;
// docs/OBSERVABILITY.md is checked against the names and help texts.
var statSeries = []obs.Series[Stats]{
	{Name: "faasbatch_submitted_total", Kind: obs.Counter, Help: "Invocations accepted by Invoke.", Key: "submitted", Int: func(s *Stats) int64 { return s.Submitted }},
	{Name: "faasbatch_canceled_total", Kind: obs.Counter, Help: "Invocations dropped before execution because their context ended.", Key: "canceled", Int: func(s *Stats) int64 { return s.Canceled }},
	{Name: "faasbatch_invocations_total", Kind: obs.Counter, Help: "Completed invocations.", Key: "invocations", Int: func(s *Stats) int64 { return s.Invocations }},
	{Name: "faasbatch_failures_total", Kind: obs.Counter, Help: "Invocations that exhausted their retry budget.", Key: "failures", Int: func(s *Stats) int64 { return s.Failures }},
	{Name: "faasbatch_retries_total", Kind: obs.Counter, Help: "Extra execution attempts granted after faults.", Key: "retries", Int: func(s *Stats) int64 { return s.Retries }},
	{Name: "faasbatch_timeouts_total", Kind: obs.Counter, Help: "Handler attempts killed by the invoke deadline.", Key: "timeouts", Int: func(s *Stats) int64 { return s.Timeouts }},
	{Name: "faasbatch_panics_total", Kind: obs.Counter, Help: "Recovered handler panics.", Key: "panics", Int: func(s *Stats) int64 { return s.Panics }},
	{Name: "faasbatch_crashes_total", Kind: obs.Counter, Help: "Containers lost mid-batch.", Key: "crashes", Int: func(s *Stats) int64 { return s.Crashes }},
	{Name: "faasbatch_boot_failures_total", Kind: obs.Counter, Help: "Failed container boots.", Key: "bootFailures", Int: func(s *Stats) int64 { return s.BootFailures }},
	{Name: "faasbatch_groups_total", Kind: obs.Counter, Help: "Dispatched window batches.", Key: "groups", Int: func(s *Stats) int64 { return s.Groups }},
	{Name: "faasbatch_fast_path_dispatches_total", Kind: obs.Counter, Help: "Adaptive idle fast-path dispatches (lone arrivals sent straight to a container).", Key: "fastPathDispatches", Int: func(s *Stats) int64 { return s.FastPathDispatches }},
	{Name: "faasbatch_early_closes_total", Kind: obs.Counter, Help: "Adaptive windows closed early at the group-size cap.", Key: "earlyCloses", Int: func(s *Stats) int64 { return s.EarlyCloses }},
	{Name: "faasbatch_window_dispatches_total", Kind: obs.Counter, Help: "Windows closed by their deadline or the shutdown flush, under either dispatch policy.", Key: "windowDispatches", Int: func(s *Stats) int64 { return s.WindowDispatches }},
	{Name: "faasbatch_dispatch_window_micros", Kind: obs.Gauge, Help: "Most recently chosen dispatch window, in microseconds (the dispatch interval under the fixed policy).", Key: "dispatchWindowMicros", Int: func(s *Stats) int64 { return s.DispatchWindowMicros }},
	{Name: "faasbatch_containers_created_total", Kind: obs.Counter, Help: "Cold starts.", Key: "containersCreated", Int: func(s *Stats) int64 { return s.ContainersCreated }},
	{Name: "faasbatch_warm_starts_total", Kind: obs.Counter, Help: "Warm container reuses.", Key: "warmStarts", Int: func(s *Stats) int64 { return s.WarmStarts }},
	{Name: "faasbatch_live_containers", Kind: obs.Gauge, Help: "Containers currently alive.", Key: "liveContainers", Int: func(s *Stats) int64 { return int64(s.LiveContainers) }},
	// /stats folds the multiplexer's counters into cache* keys (a hit is a
	// ready hit or a coalesced wait); /metrics carries every counter on its
	// own.
	{Key: "cacheHits", Help: "Resource creations served by the multiplexer: ready hits plus coalesced waits.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Hits + s.Multiplexer.Coalesced) }},
	{Name: "faasbatch_multiplexer_hits_total", Kind: obs.Counter, Help: "Resource creations served from a ready cache entry.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Hits) }},
	{Name: "faasbatch_multiplexer_coalesced_total", Kind: obs.Counter, Help: "Resource creations that waited on an in-flight build.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Coalesced) }},
	{Name: "faasbatch_multiplexer_misses_total", Kind: obs.Counter, Help: "Resource builds performed.", Key: "cacheMisses", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Misses) }},
	{Name: "faasbatch_multiplexer_live_instances", Kind: obs.Gauge, Help: "Ready cached instances held.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.LiveInstances) }},
	{Name: "faasbatch_multiplexer_bytes_live", Kind: obs.Gauge, Help: "Memory held by ready cached instances.", Int: func(s *Stats) int64 { return s.Multiplexer.BytesLive }},
	{Name: "faasbatch_multiplexer_bytes_saved_total", Kind: obs.Counter, Help: "Duplicate client memory avoided.", Key: "cacheBytesSaved", Int: func(s *Stats) int64 { return s.Multiplexer.BytesSaved }},
	{Name: "faasbatch_multiplexer_evictions_total", Kind: obs.Counter, Help: "Cached instances dropped by the LRU bound.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Evictions) }},
	{Name: "faasbatch_multiplexer_build_failures_total", Kind: obs.Counter, Help: "Resource builds that returned an error.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.BuildFailures) }},
	{Name: "faasbatch_multiplexer_invalidations_total", Kind: obs.Counter, Help: "Entries dropped by handler-feedback invalidation.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Invalidations) }},
	{Key: "cacheEvictions", Help: "Cached instances dropped by the LRU bound.", Int: func(s *Stats) int64 { return int64(s.Multiplexer.Evictions) }},
}

// NewHTTPHandler exposes a platform over HTTP:
//
//	POST /invoke        — body httpapi.InvokeRequest, reply httpapi.InvokeResponse
//	GET  /stats         — reply httpapi.StatsResponse
//	GET  /metrics       — Prometheus text: counters, gauges and histograms
//	GET  /functions     — registered function names
//	GET  /debug/traces  — Chrome trace-event JSON of the span ring buffer
//	GET  /healthz       — httpapi.HealthResponse readiness report:
//	                      200 "ok" when ready, 503 "unready"
//	                      before SetReady(true), 503 "draining" once
//	                      Close begins
//
// Every route is also served under the /v1/ prefix (/v1/invoke,
// /v1/stats, ...) with identical behaviour; the unversioned paths remain
// as aliases for existing clients. See docs/OBSERVABILITY.md.
func NewHTTPHandler(p *Platform) http.Handler {
	return httpapi.NewMux([]httpapi.Route{
		{Path: "/invoke", Method: http.MethodPost, Handler: p.serveInvoke},
		{Path: "/stats", Method: http.MethodGet, Handler: p.serveStats},
		{Path: "/functions", Method: http.MethodGet, Handler: p.serveFunctions},
		{Path: "/metrics", Method: http.MethodGet, Handler: p.serveMetrics},
		{Path: "/debug/traces", Method: http.MethodGet, Handler: p.serveTraces},
		{Path: "/healthz", Handler: p.serveHealth},
	})
}

func (p *Platform) serveInvoke(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	fn, payload, err := httpapi.ParseInvokeRequest(*body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The name is looked up from the body's bytes (m[string(b)] does not
	// allocate), and the reply echoes the registered name.
	f := p.fnsAll()[string(fn)]
	if f == nil {
		http.Error(w, p.unknownFunction(string(fn)).Error(), http.StatusBadGateway)
		return
	}
	// An inbound traceparent joins this worker's spans to the caller's
	// trace.
	res, err := p.invoke(r.Context(), f, payload, httpapi.InboundTrace(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// Handlers that already return json.RawMessage pass through
	// verbatim: re-marshalling raw JSON would compact and HTML-escape
	// it (and double-encode a handler's pre-encoded reply) for no
	// benefit. Everything else takes the reflective encoder.
	var result json.RawMessage
	switch v := res.Value.(type) {
	case nil:
		// Rendered as result:null by the byte encoder.
	case json.RawMessage:
		if len(v) > 0 && !json.Valid(v) {
			http.Error(w, "encode result: handler returned invalid raw JSON", http.StatusInternalServerError)
			return
		}
		result = v
	default:
		value, err := json.Marshal(res.Value)
		if err != nil {
			http.Error(w, fmt.Sprintf("encode result: %v", err), http.StatusInternalServerError)
			return
		}
		result = value
	}
	httpapi.EchoTrace(w, res.TraceID)
	out := httpapi.InvokeResponse{
		Fn:          f.name,
		Result:      result,
		ContainerID: res.ContainerID,
		Worker:      p.WorkerID(),
		Cold:        res.Cold,
		Attempts:    res.Attempts,
		Latency:     wireLatency(res.Breakdown),
	}
	// Byte-oriented encode through the pooled buffer: no Encoder, no
	// reflection, no per-response allocation; the encoder stamps the
	// non-zero trace ID itself.
	bufp := httpapi.LineBuffer()
	httpapi.WriteLine(w, r, p.logger, bufp, httpapi.AppendInvokeResponse((*bufp)[:0], &out, res.TraceID))
	if res.Attempts == 1 {
		// The payload (and an echoed result) aliased the body until the
		// line above was written. One attempt that returned is the only
		// case where no handler can still be reading it: after an error,
		// or a retry behind a timed-out attempt, an abandoned handler
		// goroutine may be, and the body is left to the collector.
		httpapi.Recycle(body)
	}
}

// wireLatency is the decomposition's wire view: each part and the total
// in milliseconds, converted from nanoseconds so no part rounds away and
// TotalMillis is the sum the parts report, up to float rounding.
func wireLatency(b obs.Breakdown) httpapi.Latency {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return httpapi.Latency{
		SchedMillis: ms(b.Sched),
		ColdMillis:  ms(b.ColdStart),
		QueueMillis: ms(b.Queue),
		ExecMillis:  ms(b.Exec),
		TotalMillis: ms(b.Total()),
	}
}

// serveStats renders statSeries' keyed rows over one snapshot; the reply
// decodes as httpapi.StatsResponse.
func (p *Platform) serveStats(w http.ResponseWriter, r *http.Request) {
	st := p.Stats()
	bufp := httpapi.LineBuffer()
	line := obs.AppendJSONFields(append((*bufp)[:0], '{'), statSeries, &st)
	httpapi.WriteLine(w, r, p.logger, bufp, append(line, '}'))
}

func (p *Platform) serveFunctions(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, r, p.logger, http.StatusOK, p.Functions())
}

func (p *Platform) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := p.Stats()
	w.Header().Set("Content-Type", httpapi.PromContentType)
	obs.WriteSeries(w, statSeries, &st)
	obs.WriteRuntimeGauges(w, "faasbatch")
	p.WriteSLOMetrics(w)
	p.metrics.WritePrometheus(w)
}

func (p *Platform) serveTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// A disabled tracer exports an empty trace, keeping the endpoint
	// probe-friendly either way.
	if err := p.tracer.WriteChromeTrace(w); err != nil {
		p.logger.Warn("trace export failed", "path", r.URL.Path, "err", err)
	}
}

func (p *Platform) serveHealth(w http.ResponseWriter, r *http.Request) {
	health := httpapi.HealthResponse{
		Status:   httpapi.HealthOK,
		Worker:   p.WorkerID(),
		Inflight: p.Inflight(),
	}
	status := http.StatusOK
	switch {
	case p.Draining():
		// Truthful readiness for the routing tier's prober: a draining
		// worker must stop receiving new windows.
		health.Status, status = httpapi.HealthDraining, http.StatusServiceUnavailable
	case !p.Ready():
		health.Status, status = httpapi.HealthUnready, http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, r, p.logger, status, health)
}
