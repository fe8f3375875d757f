package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/chaos"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
	"faasbatch/internal/pullsched"
)

// ErrNoWorkers reports that no worker is currently marked up.
var ErrNoWorkers = errors.New("router: no healthy worker")

// PassThroughError carries a worker's non-retryable HTTP error verbatim
// to the client: the worker answered, so the failure belongs to the
// request (unknown function, handler error), not to the fleet — failing
// over would just re-run a doomed invocation on a healthy worker.
type PassThroughError struct {
	// Worker identifies the worker that answered.
	Worker string
	// Status is the worker's HTTP status code.
	Status int
	// Body is the worker's response body.
	Body string
}

// Error implements error.
func (e *PassThroughError) Error() string {
	return fmt.Sprintf("router: worker %s answered %d: %s", e.Worker, e.Status, e.Body)
}

// Config parameterises the router.
type Config struct {
	// Workers is the fleet (at least one).
	Workers []WorkerSpec
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 500ms).
	ProbeTimeout time.Duration
	// MarkDownAfter is how many consecutive failures (probe or forward)
	// mark a worker down (default 2).
	MarkDownAfter int
	// MarkUpAfter is how many consecutive probe successes mark a down
	// worker back up (default 2).
	MarkUpAfter int
	// VNodes is the ring's virtual-node count per worker (default
	// DefaultVNodes).
	VNodes int
	// LoadBound is the bounded-load factor (default DefaultLoadBound);
	// values below 1 clamp to 1.
	LoadBound float64
	// MaxAttempts caps forward attempts per invocation across workers
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay before a forward retry, doubled per
	// attempt (default 10ms; 0 keeps the default, negative disables).
	RetryBackoff time.Duration
	// FnConcurrency caps concurrent forwards per function (0 = no
	// admission control).
	FnConcurrency int
	// QueueDepth bounds per-function waiters beyond the concurrency cap
	// (with FnConcurrency > 0; default 0 = shed immediately at the cap).
	QueueDepth int
	// QueueWait bounds how long a waiter queues before shedding
	// (default 1s).
	QueueWait time.Duration
	// ForwardTimeout bounds one forward attempt (default 30s).
	ForwardTimeout time.Duration
	// Policy selects the scheduling policy: PolicyHash (consistent-hash
	// push, the default) or PolicyPull (per-function queues with
	// worker-pull late binding). See docs/CLUSTER.md "Choosing a policy".
	Policy string
	// Pull tunes the pull policy's decision core (batch size, per-worker
	// capacity, queue depth). Nil uses the pullsched defaults; ignored
	// under PolicyHash.
	Pull *pullsched.Config
	// ScrapeTimeout bounds one member scrape (both its /metrics and
	// /stats round trips) when serving /cluster/metrics and
	// /cluster/stats (default 2s).
	ScrapeTimeout time.Duration
	// Autoscale enables the predictive autoscaling control loop over
	// the registered worker pool: slot i of the controller maps to
	// Workers[i], standby workers are activated and drained as demand
	// moves, and MaxWorkers clamps to len(Workers). Nil disables
	// autoscaling (the whole pool serves, PR 3 behaviour).
	Autoscale *autoscale.Config
	// Chaos optionally fails forward attempts deterministically
	// (chaos.WorkerFailure), so failover is testable without killing
	// real processes. Nil injects nothing.
	Chaos *chaos.Injector
	// Tracer records router spans: route, probe, forward, forward-retry,
	// shed. Nil disables tracing.
	Tracer *obs.Tracer
	// Logger receives the router's structured logs. Nil discards.
	Logger *slog.Logger
}

// Stats is a snapshot of router counters.
type Stats struct {
	// Routed counts invocations admitted past admission control.
	Routed int64
	// Completed counts invocations that returned a worker response.
	Completed int64
	// Forwarded counts forward attempts that reached a worker.
	Forwarded int64
	// Retries counts extra forward attempts after transient failures.
	Retries int64
	// Failovers counts attempts that moved to a different worker.
	Failovers int64
	// Shed counts invocations rejected by admission control.
	Shed int64
	// NoWorkers counts invocations rejected with an empty ring.
	NoWorkers int64
	// Errors counts invocations that exhausted their forward attempts.
	Errors int64
	// Probes counts health probes sent.
	Probes int64
	// ProbeFailures counts health probes that failed.
	ProbeFailures int64
	// Scrapes counts member scrape attempts made for the cluster view.
	Scrapes int64
	// ScrapeFailures counts member scrapes that failed.
	ScrapeFailures int64
}

// counters is the router's internal statistics block: one atomic per
// Stats field, as in internal/platform, so the forward path — three
// counts on every routed request — records without taking a lock.
type counters struct {
	routed, completed, forwarded, retries, failovers atomic.Int64
	shed, noWorkers, errors                          atomic.Int64
	probes, probeFailures, scrapes, scrapeFailures   atomic.Int64
}

// Router fronts a fleet of worker gateways: consistent-hash function
// affinity with bounded load, health-checked membership, bounded
// retries with failover, and admission control.
type Router struct {
	cfg     Config
	reg     *Registry
	adm     *admission
	policy  Policy
	scaler  *liveScaler
	wire    *wireClient
	tracer  *obs.Tracer
	metrics *obs.Metrics
	logger  *slog.Logger

	ctr counters

	// mu guards the Start/Close lifecycle flags only.
	mu sync.Mutex

	scrapeMu   sync.Mutex
	lastScrape map[string]memberSnapshot

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// New builds a router over cfg.Workers, with opts applied to cfg in
// order. Start launches the prober; a router without Start still routes
// (tests drive ProbeAll directly).
func New(cfg Config, opts ...Option) (*Router, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.LoadBound == 0 {
		cfg.LoadBound = DefaultLoadBound
	}
	if cfg.LoadBound < 1 {
		cfg.LoadBound = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	reg, err := NewRegistryWithConfig(RegistryConfig{
		Workers:       cfg.Workers,
		VNodes:        cfg.VNodes,
		MarkDownAfter: cfg.MarkDownAfter,
		MarkUpAfter:   cfg.MarkUpAfter,
	})
	if err != nil {
		return nil, err
	}
	wire, err := newWireClient(cfg.Workers, (&net.Dialer{}).DialContext)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	rt := &Router{
		cfg:        cfg,
		reg:        reg,
		adm:        newAdmission(cfg.FnConcurrency, cfg.QueueDepth, cfg.QueueWait),
		wire:       wire,
		tracer:     cfg.Tracer,
		metrics:    obs.NewMetrics(),
		logger:     logger,
		lastScrape: make(map[string]memberSnapshot),
		stop:       make(chan struct{}),
	}
	for id, ep := range wire.endpoints {
		ep.latency = rt.metrics.Forward(id)
	}
	if cfg.Autoscale != nil {
		scaler, err := newLiveScaler(rt, *cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		rt.scaler = scaler
	}
	// The policy builds after the scaler so the pull driver's initial
	// worker eligibility reflects autoscale's standby retirements.
	switch cfg.Policy {
	case "", PolicyHash:
		rt.policy = &hashPolicy{rt: rt}
	case PolicyPull:
		pp, err := newPullPolicy(rt, cfg.Pull)
		if err != nil {
			return nil, err
		}
		rt.policy = pp
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want %q or %q)",
			cfg.Policy, PolicyHash, PolicyPull)
	}
	reg.OnMembership(func(id string, inRing bool) {
		if !inRing {
			// Marked down or retired: whatever answers at that address
			// next gets new connections.
			rt.wire.dropIdle(id)
		}
		rt.policy.OnMembershipChange(id, inRing)
	})
	rt.logger.Info("router started",
		"workers", len(cfg.Workers),
		"policy", rt.policy.Name(),
		"vnodes", ringVNodes(cfg.VNodes),
		"loadBound", cfg.LoadBound,
		"maxAttempts", cfg.MaxAttempts,
		"fnConcurrency", cfg.FnConcurrency,
		"autoscale", cfg.Autoscale != nil)
	return rt, nil
}

// Policy exposes the active scheduling policy.
func (rt *Router) Policy() Policy { return rt.policy }

// ringVNodes resolves the configured virtual-node count.
func ringVNodes(v int) int {
	if v <= 0 {
		return DefaultVNodes
	}
	return v
}

// Registry exposes the worker registry (for /workers and tests).
func (rt *Router) Registry() *Registry { return rt.reg }

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	return Stats{
		Routed:         rt.ctr.routed.Load(),
		Completed:      rt.ctr.completed.Load(),
		Forwarded:      rt.ctr.forwarded.Load(),
		Retries:        rt.ctr.retries.Load(),
		Failovers:      rt.ctr.failovers.Load(),
		Shed:           rt.ctr.shed.Load(),
		NoWorkers:      rt.ctr.noWorkers.Load(),
		Errors:         rt.ctr.errors.Load(),
		Probes:         rt.ctr.probes.Load(),
		ProbeFailures:  rt.ctr.probeFailures.Load(),
		Scrapes:        rt.ctr.scrapes.Load(),
		ScrapeFailures: rt.ctr.scrapeFailures.Load(),
	}
}

// ForwardImbalance reports max/mean of per-worker forwarded counts.
func (rt *Router) ForwardImbalance() float64 {
	return obs.Imbalance(rt.reg.ForwardedPerWorker())
}

// Start launches the periodic health prober and, when autoscaling is
// configured, the scale-evaluation loop.
func (rt *Router) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started || rt.closed {
		return
	}
	rt.started = true
	rt.wg.Add(1)
	go rt.probeLoop()
	if rt.scaler != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.scaler.loop(rt.stop)
		}()
	}
}

// Close stops the prober and closes the idle worker connections. It does
// not wait for in-flight forwards; the HTTP server draining above the
// router owns that, and their connections close as they finish.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	rt.wg.Wait()
	rt.wire.close()
	return nil
}

// probeLoop probes the fleet every ProbeInterval until Close.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			rt.ProbeAll(context.Background())
		case <-rt.stop:
			return
		}
	}
}

// ProbeAll runs one synchronous health-probe round over every worker —
// up and down alike, so recoveries are noticed. Each probe reads the
// worker's /healthz readiness report; anything but a 200 "ok" counts as
// a failure toward mark-down.
func (rt *Router) ProbeAll(ctx context.Context) {
	trace := rt.tracer.Begin() // one trace per probe round
	for _, spec := range rt.reg.Specs() {
		start := rt.tracer.Now()
		err := rt.probeOne(ctx, spec)
		rt.tracer.Record(obs.Span{
			Trace: trace, Name: obs.SpanProbe, Detail: spec.ID,
			Start: start, End: rt.tracer.Now(),
		})
		rt.ctr.probes.Add(1)
		if err != nil {
			rt.ctr.probeFailures.Add(1)
		}
		changed, now := rt.reg.NoteResult(spec.ID, err == nil)
		if changed {
			rt.logger.Warn("worker state changed", "worker", spec.ID, "state", now.String(), "err", err)
		} else if err != nil {
			rt.logger.Debug("probe failed", "worker", spec.ID, "err", err)
		}
	}
}

// probeOne performs one /healthz round trip.
func (rt *Router) probeOne(ctx context.Context, spec WorkerSpec) error {
	ep := rt.wire.endpoints[spec.ID]
	wc, status, err := ep.get(ctx, attemptDeadline(ctx, rt.cfg.ProbeTimeout), "/healthz")
	if err != nil {
		return err
	}
	var health httpapi.HealthResponse
	// The body is informative even on 503 (draining/unready states).
	_ = json.Unmarshal(wc.rbuf, &health)
	ep.put(wc)
	if status != http.StatusOK {
		return fmt.Errorf("healthz %d (%s)", status, health.Status)
	}
	if health.Status != "" && health.Status != httpapi.HealthOK {
		return fmt.Errorf("healthz status %q", health.Status)
	}
	return nil
}

// Invoke routes one invocation: admission, ring pick, forward with
// bounded retries and failover. The error is an *OverloadError (shed),
// ErrNoWorkers, a *PassThroughError (the worker answered with an HTTP
// error), or a wrapped transport error after the attempt budget drained.
func (rt *Router) Invoke(ctx context.Context, req httpapi.RoutedInvokeRequest) (httpapi.RoutedInvokeResponse, error) {
	return rt.InvokeTraced(ctx, req, 0)
}

// InvokeTraced is Invoke with an explicit parent trace ID: a non-zero
// parent (from an inbound traceparent header) is adopted instead of
// minting a fresh trace, so the caller's trace, the router's spans and
// the worker's spans stitch into one end-to-end timeline. The trace
// identity travels to the worker as a traceparent header on the forward
// request and comes back on the response's TraceID field.
//
// It is the struct view of invokeLine's result: the one forward path
// produces the reply line, and this decodes it.
func (rt *Router) InvokeTraced(ctx context.Context, req httpapi.RoutedInvokeRequest, parent uint64) (httpapi.RoutedInvokeResponse, error) {
	var res httpapi.RoutedInvokeResponse
	bufp := httpapi.LineBuffer()
	line, _, err := rt.invokeLine(ctx, req, parent, (*bufp)[:0])
	if err == nil {
		if err = json.Unmarshal(line, &res); err != nil {
			err = fmt.Errorf("router: invoke %s: decode routed reply: %w", req.Fn, err)
		}
	}
	*bufp = line // Unmarshal copied everything it kept
	httpapi.Recycle(bufp)
	return res, err
}

// invokeLine routes one invocation and appends its reply — the
// RoutedInvokeResponse line, spliced from the worker's own — to dst,
// returning it with the reply's trace identity (zero when it has none).
// Errors are Invoke's; dst comes back unextended with one.
func (rt *Router) invokeLine(ctx context.Context, req httpapi.RoutedInvokeRequest, parent uint64, dst []byte) ([]byte, uint64, error) {
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	trace := rt.tracer.BeginWith(parent)
	admitStart := rt.tracer.Now()
	if rt.policy.Name() != PolicyPull {
		// The pull policy sheds on its bounded queue depth inside
		// Assign instead of the per-function semaphore, so admission
		// control only gates the push path.
		release, err := rt.adm.Acquire(ctx, req.Fn)
		if err != nil {
			rt.noteShed(trace, admitStart, req.Fn, err)
			return dst, 0, err
		}
		defer release()
	}
	rt.ctr.routed.Add(1)
	if rt.scaler != nil {
		// Feed the demand forecaster; on a scaled-to-zero fleet this
		// wakes the first worker before forward looks for candidates.
		rt.scaler.observe(req.Fn, rt.scaler.now())
	}
	line, echo, err := rt.forward(ctx, trace, req, dst)
	if err != nil {
		// Declared in here: errors.As sends its target to the heap, and
		// the happy path should not pay for it.
		var overload *OverloadError
		if errors.As(err, &overload) {
			// A pull-policy shed surfaces from forward, after Routed was
			// counted; undo it so Routed keeps meaning "admitted" under
			// both policies.
			rt.ctr.routed.Add(-1)
			rt.noteShed(trace, admitStart, req.Fn, err)
		}
	}
	return line, echo, err
}

// noteShed records one shed invocation: span, counter, log line.
func (rt *Router) noteShed(trace uint64, start time.Duration, fn string, err error) {
	rt.tracer.Record(obs.Span{
		Trace: trace, Name: obs.SpanShed, Fn: fn,
		Start: start, End: rt.tracer.Now(),
	})
	rt.ctr.shed.Add(1)
	rt.logger.Warn("invocation shed", "fn", fn, "err", err)
}

// forward asks the policy for a binding, then walks its per-attempt
// worker picks with bounded retries/backoff.
func (rt *Router) forward(ctx context.Context, trace uint64, req httpapi.RoutedInvokeRequest, dst []byte) ([]byte, uint64, error) {
	routeStart := rt.tracer.Now()
	bnd, assignErr := rt.policy.Assign(ctx, req.Fn)
	if trace != 0 { // the detail string is built for a sampled trace only
		detail := "candidates=0"
		if assignErr == nil {
			detail = bnd.detail()
		}
		rt.tracer.Record(obs.Span{
			Trace: trace, Name: obs.SpanRoute, Fn: req.Fn,
			Detail: detail,
			Start:  routeStart, End: rt.tracer.Now(),
		})
	}
	if assignErr != nil {
		if errors.Is(assignErr, ErrNoWorkers) {
			rt.ctr.noWorkers.Add(1)
		}
		return dst, 0, assignErr
	}
	// Settle the binding exactly once on every exit path: success and
	// pass-through ack the lease, everything else aborts it, so the
	// pull core's conservation (enqueued = completed + aborted) holds.
	served := false
	defer func() { bnd.Done(served) }()
	var lastErr error
	var prev string
	for attempt := 1; attempt <= rt.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return dst, 0, fmt.Errorf("router: invoke %s: %w", req.Fn, err)
		}
		if attempt > 1 {
			rt.ctr.retries.Add(1)
			rt.backoff(ctx, trace, req.Fn, attempt)
		}
		id, err := bnd.Next(ctx, attempt)
		if err != nil {
			// Context expired (or the router closed) while waiting for a
			// pull lease; the deferred Done aborts the queued item.
			return dst, 0, fmt.Errorf("router: invoke %s: %w", req.Fn, err)
		}
		if attempt > 1 && id != prev {
			rt.ctr.failovers.Add(1)
		}
		prev = id
		line, echo, outcome, err := rt.tryWorker(ctx, trace, attempt, id, req, dst)
		if outcome != outcomeTransient {
			// The worker answered — with a result, or with an error that
			// belongs to the request, which passes through: failing over
			// would re-run a doomed invocation on a healthy worker.
			rt.ctr.completed.Add(1)
			served = true
			return line, echo, err
		}
		// Transient: connection error, injected worker failure, or a 503
		// from a draining worker. It counted toward mark-down; fail over.
		lastErr = err
		rt.logger.Info("forward failed", "fn", req.Fn, "worker", id, "attempt", attempt, "err", err)
	}
	rt.ctr.errors.Add(1)
	return dst, 0, fmt.Errorf("router: invoke %s: %d attempts exhausted: %w",
		req.Fn, rt.cfg.MaxAttempts, lastErr)
}

// A forward attempt's outcome, as its span detail spells it.
const (
	outcomeOK          = "ok"
	outcomeWorkerError = "worker-error" // the worker answered with a non-retryable HTTP error
	outcomeTransient   = "transient"    // connection failure, 503, injected fault
)

// attemptOutcome labels a forward attempt's result.
func attemptOutcome(err error) string {
	if err == nil {
		return outcomeOK
	}
	var pass *PassThroughError
	if errors.As(err, &pass) {
		return outcomeWorkerError
	}
	return outcomeTransient
}

// backoff sleeps the exponential retry delay (base doubled per extra
// attempt), bounded by ctx.
func (rt *Router) backoff(ctx context.Context, trace uint64, fn string, attempt int) {
	if rt.cfg.RetryBackoff <= 0 {
		return
	}
	delay := rt.cfg.RetryBackoff << uint(attempt-2)
	start := rt.tracer.Now()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
	rt.tracer.Record(obs.Span{
		Trace: trace, Name: obs.SpanForwardRetry, Fn: fn, Attempt: attempt,
		Start: start, End: rt.tracer.Now(),
	})
}

// tryWorker performs one forward attempt against one worker and settles
// it with the registry: one BeginForward before the exchange, one
// EndForward after, which also feeds the worker's health state. A non-2xx,
// non-503 worker response returns a *PassThroughError; connection errors,
// injected worker failures and 503s return plain (retryable) errors. Each
// attempt records one forward span carrying the worker ID and the
// attempt's outcome.
func (rt *Router) tryWorker(ctx context.Context, trace uint64, attempt int, id string, req httpapi.RoutedInvokeRequest, dst []byte) (line []byte, echo uint64, outcome string, err error) {
	spanStart := rt.tracer.Now()
	line, begun := dst, false
	switch ep := rt.wire.endpoints[id]; {
	case rt.cfg.Chaos.Should(chaos.WorkerFailure):
		err = fmt.Errorf("injected worker failure (%s)", id)
	case ep == nil || !rt.reg.BeginForward(id):
		err = fmt.Errorf("unknown worker %q", id)
	default:
		begun = true
		line, echo, err = rt.exchange(ctx, ep, trace, attempt, req, dst)
	}
	outcome = attemptOutcome(err)
	var changed bool
	var now WorkerState
	if begun {
		changed, now = rt.reg.EndForward(id, err == nil, outcome != outcomeTransient)
	} else {
		changed, now = rt.reg.NoteResult(id, false)
	}
	if changed {
		rt.logger.Warn("worker state changed", "worker", id, "state", now.String(), "err", err)
	}
	if trace != 0 { // the detail string is built for a sampled trace only
		rt.tracer.Record(obs.Span{
			Trace: trace, Name: obs.SpanForward, Fn: req.Fn, Attempt: attempt,
			Detail: id + " " + outcome,
			Start:  spanStart, End: rt.tracer.Now(),
		})
	}
	return line, echo, outcome, err
}

// exchange is the attempt's round trip on the wire: the request goes out
// with the trace as a traceparent header, so the worker's spans join the
// same trace, and a 200's body is spliced into the routed reply line
// while the connection still holds it.
func (rt *Router) exchange(ctx context.Context, ep *endpoint, trace uint64, attempt int, req httpapi.RoutedInvokeRequest, dst []byte) ([]byte, uint64, error) {
	start := time.Now()
	wc, status, err := ep.invoke(ctx, attemptDeadline(ctx, rt.cfg.ForwardTimeout), trace, req.Fn, req.Payload)
	if err != nil {
		return dst, 0, fmt.Errorf("forward to %s: %w", ep.id, err)
	}
	ep.latency.Observe(time.Since(start))
	rt.ctr.forwarded.Add(1)
	// Every escape below copies out of the connection's reply buffer (the
	// splice appends, the errors stringify), so nothing aliases it once
	// the connection is put back.
	defer ep.put(wc)
	switch status {
	case http.StatusOK:
		line, echo, err := httpapi.SpliceRoutedInvokeResponse(dst, wc.rbuf, ep.id, attempt, trace)
		if err != nil {
			return dst, 0, fmt.Errorf("decode response from %s: %w", ep.id, err)
		}
		return line, echo, nil
	case http.StatusServiceUnavailable:
		return dst, 0, fmt.Errorf("worker %s unavailable: %s", ep.id, bytes.TrimSpace(wc.rbuf))
	default:
		return dst, 0, &PassThroughError{
			Worker: ep.id, Status: status, Body: string(bytes.TrimSpace(wc.rbuf)),
		}
	}
}
