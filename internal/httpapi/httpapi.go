// Package httpapi defines the wire types of the live FaaSBatch gateway
// (internal/platform, cmd/faasgate) and of the routing tier that fronts a
// fleet of gateways (internal/router, cmd/faasrouter).
package httpapi

import (
	"encoding/json"
	"fmt"
)

// InvokeRequest asks the gateway to invoke a function.
type InvokeRequest struct {
	// Fn is the registered function name.
	Fn string `json:"fn"`
	// Payload is passed to the handler verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// DecodeInvokeRequest parses and validates an /invoke request body.
// Malformed input yields an error, never a panic. Canonical bodies take
// a byte-oriented fast path (wire.go) whose Payload aliases body —
// callers must not recycle body while the request is live; unusual
// shapes fall back to encoding/json with identical semantics.
func DecodeInvokeRequest(body []byte) (InvokeRequest, error) {
	fn, payload, err := ParseInvokeRequest(body)
	if err != nil {
		return InvokeRequest{}, err
	}
	return InvokeRequest{Fn: string(fn), Payload: payload}, nil
}

// ParseInvokeRequest is DecodeInvokeRequest without building the
// function name's string: on the fast path fn aliases body, so a caller
// that only looks the name up (m[string(fn)] does not allocate) decodes
// a canonical body allocation-free.
func ParseInvokeRequest(body []byte) (fn []byte, payload json.RawMessage, err error) {
	if w, ok := parseInvokeWire(body); ok {
		if len(w.fn) == 0 {
			return nil, nil, fmt.Errorf("httpapi: invoke request missing fn")
		}
		if len(w.payload) > 0 {
			payload = json.RawMessage(w.payload)
		}
		return w.fn, payload, nil
	}
	var req InvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("httpapi: decode invoke request: %w", err)
	}
	if req.Fn == "" {
		return nil, nil, fmt.Errorf("httpapi: invoke request missing fn")
	}
	return []byte(req.Fn), req.Payload, nil
}

// Latency is the wall-clock latency decomposition of one invocation,
// mirroring the paper's metric split (§IV).
type Latency struct {
	// SchedMillis is the scheduling latency (window wait + dispatch).
	SchedMillis float64 `json:"schedMillis"`
	// ColdMillis is the container boot time (0 on warm starts).
	ColdMillis float64 `json:"coldMillis"`
	// QueueMillis is the in-container queuing latency (container ready
	// until the handler starts).
	QueueMillis float64 `json:"queueMillis"`
	// ExecMillis is the handler execution time.
	ExecMillis float64 `json:"execMillis"`
	// TotalMillis is the end-to-end latency: the sum of the four
	// components above, completing the paper's §IV decomposition.
	TotalMillis float64 `json:"totalMillis"`
}

// InvokeResponse reports one completed invocation.
type InvokeResponse struct {
	// Fn echoes the function name.
	Fn string `json:"fn"`
	// Result is the handler's JSON-encoded return value.
	Result json.RawMessage `json:"result"`
	// ContainerID identifies the serving container.
	ContainerID string `json:"containerId"`
	// Worker identifies the gateway that served the invocation, when it
	// runs as a fleet worker (Config.WorkerID); empty on a standalone
	// gateway.
	Worker string `json:"worker,omitempty"`
	// Cold reports whether the invocation paid a cold start.
	Cold bool `json:"cold"`
	// Attempts is how many execution attempts the invocation consumed:
	// 1 on a first-try success, more when the platform retried it.
	Attempts int `json:"attempts"`
	// TraceID is the invocation's trace identity as 16 lowercase hex
	// digits, matching the low 64 bits of the W3C traceparent trace-id.
	// Empty when tracing is disabled. A hex string survives JSON clients
	// that round numbers through float64.
	TraceID string `json:"traceId,omitempty"`
	// Latency is the invocation's latency decomposition.
	Latency Latency `json:"latency"`
}

// StatsResponse is the gateway's counters snapshot as clients decode it.
// The gateway renders /stats from its series table (internal/platform's
// statSeries), not from this struct; TestStatsWireMatchesStatsResponse
// holds the two to the same keys in the same order.
type StatsResponse struct {
	// Submitted counts invocations accepted by the gateway.
	Submitted int64 `json:"submitted"`
	// Canceled counts invocations dropped before execution because their
	// caller's context ended while they waited.
	Canceled int64 `json:"canceled"`
	// Invocations counts completed invocations (including failures).
	Invocations int64 `json:"invocations"`
	// Failures counts invocations that exhausted their retry budget.
	Failures int64 `json:"failures"`
	// Retries counts extra execution attempts granted after faults.
	Retries int64 `json:"retries"`
	// Timeouts counts handler attempts killed by the invoke deadline.
	Timeouts int64 `json:"timeouts"`
	// Panics counts recovered handler panics.
	Panics int64 `json:"panics"`
	// Crashes counts containers lost mid-batch.
	Crashes int64 `json:"crashes"`
	// BootFailures counts failed container boots.
	BootFailures int64 `json:"bootFailures"`
	// Groups counts dispatched batches.
	Groups int64 `json:"groups"`
	// FastPathDispatches counts adaptive idle fast-path dispatches.
	FastPathDispatches int64 `json:"fastPathDispatches"`
	// EarlyCloses counts adaptive windows closed at the group-size cap.
	EarlyCloses int64 `json:"earlyCloses"`
	// WindowDispatches counts windows closed by their deadline or the
	// shutdown flush, under either dispatch policy.
	WindowDispatches int64 `json:"windowDispatches"`
	// DispatchWindowMicros is the most recently chosen dispatch window, in
	// microseconds (the dispatch interval under the fixed policy; zero
	// before the first batched arrival).
	DispatchWindowMicros int64 `json:"dispatchWindowMicros"`
	// ContainersCreated counts cold starts.
	ContainersCreated int64 `json:"containersCreated"`
	// WarmStarts counts container reuses.
	WarmStarts int64 `json:"warmStarts"`
	// LiveContainers counts currently alive containers.
	LiveContainers int `json:"liveContainers"`
	// CacheHits counts resource creations served by the multiplexer
	// (ready hits plus coalesced waits).
	CacheHits uint64 `json:"cacheHits"`
	// CacheMisses counts actual resource builds.
	CacheMisses uint64 `json:"cacheMisses"`
	// CacheBytesSaved is duplicate memory avoided by the multiplexer.
	CacheBytesSaved int64 `json:"cacheBytesSaved"`
	// CacheEvictions counts cached instances dropped by the LRU bound.
	CacheEvictions uint64 `json:"cacheEvictions"`
}

// RoutedInvokeRequest asks the routing tier to invoke a function on
// whichever worker owns it on the consistent-hash ring. It is a superset
// of InvokeRequest, so plain gateway clients can talk to a router
// unchanged.
type RoutedInvokeRequest struct {
	// Fn is the function name (the ring key).
	Fn string `json:"fn"`
	// Payload is passed to the handler verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
	// TimeoutMillis optionally bounds the whole routed invocation
	// (admission wait + forwards + retries). Zero means no client bound.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// DecodeRoutedInvokeRequest parses and validates a router /invoke request
// body. Malformed input yields an error, never a panic. Canonical bodies
// take the same byte-oriented fast path as DecodeInvokeRequest (the
// Payload aliases body); unusual shapes fall back to encoding/json.
func DecodeRoutedInvokeRequest(body []byte) (RoutedInvokeRequest, error) {
	if w, ok := parseInvokeWire(body); ok {
		if len(w.fn) == 0 {
			return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke request missing fn")
		}
		if w.timeout < 0 {
			return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke timeout must be non-negative, got %d", w.timeout)
		}
		req := RoutedInvokeRequest{Fn: string(w.fn), TimeoutMillis: w.timeout}
		if len(w.payload) > 0 {
			req.Payload = json.RawMessage(w.payload)
		}
		return req, nil
	}
	var req RoutedInvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: decode routed invoke request: %w", err)
	}
	if req.Fn == "" {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke request missing fn")
	}
	if req.TimeoutMillis < 0 {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke timeout must be non-negative, got %d", req.TimeoutMillis)
	}
	return req, nil
}

// RoutedInvokeResponse reports one invocation completed through the
// router: the worker's InvokeResponse plus routing provenance. Its Worker
// field shadows the embedded one — the router always reports which worker
// it forwarded to, even when the worker omits its own identity.
type RoutedInvokeResponse struct {
	InvokeResponse
	// Worker identifies the worker that served the invocation.
	Worker string `json:"worker"`
	// ForwardAttempts is how many forward attempts the router spent
	// (1 on the happy path; connection errors and failovers add one each).
	ForwardAttempts int `json:"forwardAttempts"`
}

// Health states reported by /healthz.
const (
	// HealthOK means the worker is registered, ready and accepting work.
	HealthOK = "ok"
	// HealthUnready means the worker is up but has not completed function
	// registration yet.
	HealthUnready = "unready"
	// HealthDraining means the worker is shutting down and draining
	// in-flight work.
	HealthDraining = "draining"
)

// HealthResponse is the /healthz body of a worker gateway: a truthful
// readiness signal the router's prober turns into worker membership.
type HealthResponse struct {
	// Status is one of the Health* states above. Only HealthOK travels
	// with a 200; the other states ride a 503.
	Status string `json:"status"`
	// Worker is the gateway's fleet identity (empty when standalone).
	Worker string `json:"worker,omitempty"`
	// Inflight counts invocations accepted but not yet completed.
	Inflight int64 `json:"inflight"`
}

// WorkerStatus is one worker's row in the router's /workers table.
type WorkerStatus struct {
	// ID is the worker's fleet identity.
	ID string `json:"id"`
	// URL is the worker's base URL.
	URL string `json:"url"`
	// State is "up", "down", "draining", or "standby".
	State string `json:"state"`
	// Inflight counts forwards currently outstanding against the worker.
	Inflight int64 `json:"inflight"`
	// Forwarded counts invocations this worker served through the router.
	Forwarded int64 `json:"forwarded"`
	// Failures counts forward attempts and probes that failed against it.
	Failures int64 `json:"failures"`
}

// MemberStats is one worker's stats snapshot inside the router's
// federated /cluster/stats reply.
type MemberStats struct {
	// Worker is the member's fleet identity.
	Worker string `json:"worker"`
	// Fresh reports whether the snapshot came from this scrape round;
	// false means the member failed to answer and its last good snapshot
	// is being served.
	Fresh bool `json:"fresh"`
	// Stats is the member's gateway counters snapshot.
	Stats StatsResponse `json:"stats"`
}

// ClusterStatsResponse is the router's /cluster/stats reply: the
// router's own counters plus a fleet-wide roll-up of every member
// gateway's counters.
type ClusterStatsResponse struct {
	// Router is the routing tier's own /stats document, verbatim.
	Router json.RawMessage `json:"router"`
	// Cluster is the field-wise sum of every member's StatsResponse.
	Cluster StatsResponse `json:"cluster"`
	// Members lists each member's individual snapshot.
	Members []MemberStats `json:"members"`
}
