// Package platform is a live, wall-clock FaaSBatch runtime: a miniature
// serverless platform that executes real Go functions with the paper's
// scheduling architecture. Where internal/experiment reproduces the
// evaluation in virtual time, this package is what a downstream user
// embeds to run FaaSBatch for real:
//
//   - functions register as Go handlers;
//   - the Invoke Mapper batches concurrent invocations per function over
//     a dispatch interval and expands each group inside one container
//     (a goroutine-backed worker with a simulated cold-start delay);
//   - each container carries a Resource Multiplexer; handlers obtain
//     shared clients through Resources.GetContext, so duplicate
//     constructions coalesce exactly as in §III-D.
//
// A per-invocation mode (Vanilla) is included for comparison, and
// NewHTTPHandler exposes the platform over HTTP (cmd/faasgate).
package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/dispatch"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/obs"
	"faasbatch/internal/slo"
)

// Mode selects the scheduling policy of the live platform.
type Mode int

// Scheduling modes.
const (
	// ModeBatch is FaaSBatch: window batching + inline-parallel
	// expansion + resource multiplexing.
	ModeBatch Mode = iota + 1
	// ModeVanilla launches/acquires one container per invocation.
	ModeVanilla
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBatch:
		return "faasbatch"
	case ModeVanilla:
		return "vanilla"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Handler is a registered serverless function.
type Handler func(ctx context.Context, inv *Invocation) (any, error)

// Invocation is the handler's view of one request.
type Invocation struct {
	// Payload is the raw request payload. It is the handler's to read
	// until it returns: the gateway reuses the bytes for a later request
	// once the reply is written, so a handler that keeps the payload (or
	// returns a value that aliases it and outlives the reply) copies it.
	Payload json.RawMessage
	// Resources is the container's Resource Multiplexer facade.
	Resources *Resources
	// ContainerID identifies the hosting container.
	ContainerID string
}

// Outcome classifies how a Resources.GetContext call was served; it is
// the multiplexer's Outcome re-exported for handler ergonomics.
type Outcome = multiplex.Outcome

// Outcomes of Resources.GetContext.
const (
	OutcomeMiss      = multiplex.OutcomeMiss
	OutcomeHit       = multiplex.OutcomeHit
	OutcomeCoalesced = multiplex.OutcomeCoalesced
	OutcomeError     = multiplex.OutcomeError
)

// Typed errors surfaced by Resources.GetContext, matchable with
// errors.Is through any wrapping.
var (
	// ErrBuildFailed marks a failed client construction (the build
	// callback erred or panicked).
	ErrBuildFailed = multiplex.ErrBuildFailed
	// ErrCacheClosed marks a multiplexer that has been torn down (the
	// hosting container is retiring).
	ErrCacheClosed = multiplex.ErrCacheClosed
)

// Resources is the handler-facing face of the container's Resource
// Multiplexer: GetContext intercepts resource creations, as the paper's
// multiplexer intercepts client(args) calls. When the invocation is
// traced, the platform hands the handler a per-invocation view carrying
// the trace context, so client builds appear as spans on the right trace.
type Resources struct {
	cache *multiplex.Cache
	inj   *chaos.Injector

	// borrows collects the release half of every cache loan this view
	// hands out. The platform gives each invocation its own view and
	// releases after the handler returns, so an instance evicted while
	// the handler still uses it is closed only once the handler is done.
	borrows *borrowSet

	// Trace context (zero on untraced views).
	tracer    *obs.Tracer
	trace     uint64
	fn        string
	container string
}

// borrowSet is one invocation's outstanding resource loans. Handlers may
// call GetContext from concurrent goroutines, so it locks. The first few
// loans live inline — a handler rarely takes more — so a pooled invState
// records them without allocating.
type borrowSet struct {
	mu     sync.Mutex
	n      int // loans held in inline
	inline [4]multiplex.Loan
	spill  []multiplex.Loan
}

func (b *borrowSet) add(l multiplex.Loan) {
	b.mu.Lock()
	if b.n < len(b.inline) {
		b.inline[b.n] = l
		b.n++
	} else {
		b.spill = append(b.spill, l)
	}
	b.mu.Unlock()
}

// releaseAll returns every borrowed instance, firing any eviction closes
// that were deferred while the invocation held them. It leaves the set
// empty, which is what makes a second call a no-op. The inline slots are
// reused by the invState's next life; that is safe only because a handler
// abandoned to InvokeTimeout — the one party that could still add late —
// keeps its invState for good (runCall recycles it only when the handler
// has really returned), so a late add can never land in a set another
// invocation is filling.
func (b *borrowSet) releaseAll() {
	b.mu.Lock()
	inline, n, spill := b.inline, b.n, b.spill
	b.inline, b.n, b.spill = [len(b.inline)]multiplex.Loan{}, 0, nil
	b.mu.Unlock()
	for i := range inline[:n] {
		inline[i].Release()
	}
	for i := range spill {
		spill[i].Release()
	}
}

// GetContext returns the shared instance for (callee, argsKey), building
// it at most once per container. The Outcome reports how the call was
// served: a miss builds, a hit or coalesced wait reuses. A failed build is
// not remembered: the callers coalesced on it wake, and the next call
// builds again. Errors match ErrBuildFailed / ErrCacheClosed with
// errors.Is; a done ctx abandons a coalesced wait with ctx.Err.
//
// A returned instance is borrowed for the rest of the invocation: if the
// cache evicts it (capacity, a concurrent Invalidate, container
// retirement) while the handler still holds it, its io.Closer runs only
// after the handler returns — never mid-use. Instances kept beyond the
// invocation (e.g. captured by a goroutine the handler leaves behind)
// lose that protection.
//
// When the platform runs without multiplexing, every call builds a fresh
// instance and reports OutcomeMiss.
func (r *Resources) GetContext(ctx context.Context, callee, argsKey string, build func() (any, int64, error)) (any, Outcome, error) {
	if r.inj != nil {
		// Fault injection wraps the constructor, so an injected failure
		// fires only when a build actually runs — cache hits are immune,
		// and a failed build exercises the multiplexer's failure path
		// (coalesced waiters wake and retry).
		orig := build
		build = func() (any, int64, error) {
			if r.inj.Should(chaos.StorageFailure) {
				return nil, 0, fmt.Errorf("injected storage-client construction failure")
			}
			return orig()
		}
	}
	var start time.Duration
	if r.trace != 0 {
		start = r.tracer.Now()
	}
	v, out, err := r.getCached(ctx, callee, argsKey, build)
	if r.trace != 0 {
		// One span per creation attempt, tagged with how it was served —
		// a hit's near-zero span is the §III-D saving made visible.
		r.tracer.Record(obs.Span{
			Trace: r.trace, Name: obs.SpanResourceBuild,
			Fn: r.fn, Container: r.container,
			Detail: callee + " [" + out.String() + "]",
			Start:  start, End: r.tracer.Now(),
		})
	}
	return v, out, err
}

// getCached is GetContext after instrumentation: the cache lookup, or an
// uncached build when multiplexing is off.
func (r *Resources) getCached(ctx context.Context, callee, argsKey string, build func() (any, int64, error)) (any, Outcome, error) {
	if r.cache == nil {
		v, _, err := build()
		if err != nil {
			return nil, OutcomeError, fmt.Errorf("platform: build %s: %w", callee, err)
		}
		return v, OutcomeMiss, nil
	}
	// Borrow the instance for the rest of the invocation: if it is
	// evicted while the handler still holds it, its Closer runs only
	// after the handler returns.
	v, out, loan, err := r.cache.Acquire(ctx, multiplex.NewKey(callee, argsKey), build)
	r.borrows.add(loan)
	return v, out, err
}

// Invalidate drops the shared instance for (callee, argsKey), reporting
// whether an instance was removed. It is handler feedback: after a cached
// client errors at use time (stale credentials, dead connection), the
// handler invalidates it so the next creation rebuilds instead of reusing
// a broken instance. An in-flight build is left alone.
func (r *Resources) Invalidate(callee, argsKey string) bool {
	if r.cache == nil {
		return false
	}
	return r.cache.Invalidate(multiplex.NewKey(callee, argsKey))
}

// Result is the outcome of one invocation, with the latency decomposition
// of §IV measured in wall-clock time.
type Result struct {
	// Value is the handler's return value.
	Value any
	// ContainerID identifies the container that served the invocation.
	ContainerID string
	// Cold reports whether a container had to be started.
	Cold bool
	// Breakdown is the decomposition: Sched is the window wait plus
	// dispatch, ColdStart the group's container boot, Queue the gap from
	// the container being ready to the handler starting, Exec the
	// handler. Total is their sum.
	obs.Breakdown
	// Attempts is how many execution attempts the invocation consumed
	// (1 on the happy path; retries after faults add one each, capped at
	// 1+Config.MaxRetries).
	Attempts int
	// TraceID identifies the invocation's trace when the platform runs
	// with a sampling tracer (zero when tracing is off or unsampled).
	TraceID uint64
}

// Config parameterises the live platform.
type Config struct {
	// Mode selects batching (FaaSBatch) or per-invocation (Vanilla).
	// ModeVanilla is shorthand for AdaptiveDispatch with MaxGroupSize 1
	// and overrides the window fields below.
	Mode Mode
	// DispatchInterval is the Invoke Mapper window. With
	// AdaptiveDispatch it is the window cap, so switching
	// AdaptiveDispatch on never batches longer than the fixed
	// configuration it replaces.
	DispatchInterval time.Duration
	// AdaptiveDispatch selects the dispatch controller's load-aware
	// policy (internal/dispatch) over its fixed one: a lone arrival on an
	// idle function dispatches immediately instead of waiting out a
	// window, an EWMA of inter-arrival gaps sizes each window within
	// [MinInterval, DispatchInterval], and a window whose group reaches
	// MaxGroupSize closes early. Off by default (the paper's fixed
	// interval).
	AdaptiveDispatch bool
	// MinInterval is the adaptive window floor. Zero takes
	// DefaultMinInterval (clamped to DispatchInterval).
	MinInterval time.Duration
	// MaxGroupSize closes an adaptive window early once its group
	// reaches this size. Zero means unbounded groups.
	MaxGroupSize int
	// ColdStart simulates container boot time.
	ColdStart time.Duration
	// KeepAlive retains idle containers before eviction.
	KeepAlive time.Duration
	// Multiplex equips containers with a Resource Multiplexer.
	Multiplex bool
	// Multiplexer tunes each container's Resource Multiplexer: its
	// capacity bound (see multiplex.Config). The zero value is an
	// unbounded cache. Evicted instances implementing io.Closer
	// are closed automatically, after any OnEvict hook set here runs.
	// Ignored unless Multiplex is true.
	Multiplexer multiplex.Config
	// InvokeTimeout bounds one handler execution attempt. A handler
	// exceeding it fails with a deadline error while the rest of its
	// batch completes normally — without it, one hung handler wedges its
	// whole group and Close (the paper's single-container group mapping
	// concentrates that risk). Zero means no deadline.
	InvokeTimeout time.Duration
	// MaxRetries is how many extra attempts a failed invocation receives
	// before its error is surfaced. Retried invocations re-batch into a
	// later dispatch window (at most 1+MaxRetries attempts; the final
	// outcome reports Result.Attempts). Zero disables retries.
	MaxRetries int
	// RetryBackoff is the base delay before a retry re-enters the
	// window, doubled on every further attempt (exponential backoff).
	// Zero re-batches immediately into the next window.
	RetryBackoff time.Duration
	// WorkerID is this platform's identity in a multi-worker fleet
	// (internal/router): echoed in invoke responses and /healthz, so the
	// router can attribute work truthfully. Empty means standalone.
	WorkerID string
	// Chaos optionally injects seeded faults (boot failures, container
	// crashes, handler error/panic/hang, slow cold starts, storage
	// construction failures). Nil — the default — injects nothing.
	Chaos *chaos.Injector
	// Tracer records per-invocation lifecycle spans (obs.NewWallTracer).
	// Nil — the default — disables tracing; the disabled hot path adds no
	// allocations.
	Tracer *obs.Tracer
	// SLOs declares per-function service-level objectives, evaluated with
	// multi-window burn rates (internal/slo) and exported on /metrics.
	// Empty disables SLO tracking.
	SLOs []slo.Objective
	// Logger receives the platform's structured logs (dispatch decisions,
	// container lifecycle, fault and retry events), correlated by trace
	// ID. Nil discards everything.
	Logger *slog.Logger
}

// DefaultMinInterval is the adaptive window floor when Config.MinInterval
// is zero.
const DefaultMinInterval = dispatch.DefaultMinInterval

// DefaultConfig returns paper-like live defaults (cold starts scaled down
// so examples run snappily).
func DefaultConfig() Config {
	return Config{
		Mode:             ModeBatch,
		DispatchInterval: 200 * time.Millisecond,
		ColdStart:        100 * time.Millisecond,
		KeepAlive:        2 * time.Minute,
		Multiplex:        true,
	}
}

// Stats is a snapshot of platform counters.
type Stats struct {
	// Submitted counts invocations accepted by Invoke. At quiescence
	// Submitted == Invocations + Canceled: every accepted invocation
	// completes exactly once (possibly as a failure) or is dropped
	// because its caller's context ended while it waited — never
	// silently disappears.
	Submitted int64
	// Canceled counts invocations dropped before execution because their
	// context was already done at window close (or before a retry
	// re-batched). Their callers had stopped listening; executing the
	// handler anyway would burn a batch slot for nobody.
	Canceled int64
	// Invocations counts completed invocations (successes and final
	// failures alike).
	Invocations int64
	// Failures counts invocations whose final outcome was an error after
	// the retry budget was exhausted.
	Failures int64
	// Retries counts extra execution attempts granted after failures.
	Retries int64
	// Timeouts counts handler attempts killed by InvokeTimeout.
	Timeouts int64
	// Panics counts handler attempts that panicked (recovered).
	Panics int64
	// Crashes counts containers lost to injected mid-batch crashes.
	Crashes int64
	// BootFailures counts container boots that failed and were retried.
	BootFailures int64
	// Groups counts dispatched batches.
	Groups int64
	// FastPathDispatches counts adaptive idle fast-path dispatches: lone
	// arrivals sent straight to a container because no batching
	// opportunity existed.
	FastPathDispatches int64
	// EarlyCloses counts adaptive windows closed early because their
	// group reached MaxGroupSize.
	EarlyCloses int64
	// WindowDispatches counts windows closed by their deadline or by the
	// Close flush, under either policy: every fixed-interval group is
	// one. Groups is the sum of these three at quiescence.
	WindowDispatches int64
	// DispatchWindowMicros is the most recently chosen window, in
	// microseconds (a gauge; zero until the first batched arrival; the
	// dispatch interval under the fixed policy).
	DispatchWindowMicros int64
	// ContainersCreated counts cold starts.
	ContainersCreated int64
	// WarmStarts counts container reuses.
	WarmStarts int64
	// LiveContainers counts containers currently alive.
	LiveContainers int
	// Multiplexer aggregates the containers' cache statistics.
	Multiplexer multiplex.Stats
}

// function is one registered function: its handler, and its shard core
// (shard.go) with the plumbing that carries the core's decisions out. Its
// mutex is the platform's sharding unit: it guards the shard, so
// concurrent Invokes on different functions never contend on a lock
// (DESIGN.md §14).
type function struct {
	handler Handler
	// latency is the function's histogram handle, resolved at Register so
	// settling an invocation shares no lock with another function.
	latency *obs.FunctionLatency

	// mu guards the shard and the call states of its calls.
	mu sync.Mutex
	shard
	// window wakes the shard when its open window is due (windowDue);
	// expire wakes it when warm[0] has been parked KeepAlive (expireIdle).
	// Each is armed at a deadline the shard returns: no loop scans the
	// other functions.
	window, expire *time.Timer
}

// pendingCall is an invocation waiting for its window. Its caller stays
// parked in Invoke for the call's whole life and runs every attempt
// itself, on the ticket its group's closer hands it.
type pendingCall struct {
	ctx     context.Context
	payload json.RawMessage
	// arrive is the arrival instant on the platform's clock (Platform.now).
	arrive time.Duration
	// attempts counts execution attempts already consumed; a call retries
	// while attempts <= Config.MaxRetries.
	attempts int
	// trace is the invocation's trace ID (zero when untraced). Retries
	// keep the ID, so every attempt's spans land on one trace.
	trace uint64
	// state is the ownership handshake between the caller and whoever
	// claims the call for a group, guarded by the function's mu. A claim
	// moves waiting to claimed and owes the caller exactly one ticket; a
	// caller whose context ends moves waiting to abandoned and walks
	// away, leaving the call to whoever finds it. Whichever comes second
	// yields: a call found abandoned is dropped, a caller that finds its
	// call claimed takes the ticket and runs it.
	state callState
	// ticket delivers the claimed call's group, filled in and ready to
	// run on. Buffered one: a claimed call is owed exactly one, so the
	// send never blocks.
	ticket chan *callGroup
}

// callGroup is one closed window's group and, once dispatched, the ticket
// its members run on. Whoever closed the window owns it while dispatchGroup fills
// in the container the group expands in and the instants its latency
// components are measured from (offsets on the platform's clock); from the
// last ticket sent it belongs to the members, who only read it. The member
// that takes remaining to zero settles the group and recycles it (pool.go).
type callGroup struct {
	calls    []*pendingCall
	c        *container
	cold     bool
	dispatch time.Duration
	ready    time.Duration
	coldDur  time.Duration
	// crash is the injected mid-batch crash that took the container (nil
	// otherwise): every member settles with it instead of running.
	crash error
	// remaining counts the members still running.
	remaining atomic.Int32
}

// counters is the platform's internal statistics block: one atomic per
// Stats field, so the invoke hot path records without taking any lock.
// Stats() assembles the public snapshot from loads.
type counters struct {
	submitted            atomic.Int64
	canceled             atomic.Int64
	invocations          atomic.Int64
	failures             atomic.Int64
	retries              atomic.Int64
	timeouts             atomic.Int64
	panics               atomic.Int64
	crashes              atomic.Int64
	bootFailures         atomic.Int64
	groups               atomic.Int64
	fastPathDispatches   atomic.Int64
	earlyCloses          atomic.Int64
	windowDispatches     atomic.Int64
	dispatchWindowMicros atomic.Int64
	containersCreated    atomic.Int64
	warmStarts           atomic.Int64
	liveContainers       atomic.Int64
}

// Platform is the live FaaSBatch runtime.
type Platform struct {
	cfg Config

	// Observability: tracer (nil when disabled), labeled histograms, SLO
	// burn-rate tracker (nil when no objectives are configured) and the
	// structured logger (never nil; obs.Nop() by default).
	tracer  *obs.Tracer
	metrics *obs.Metrics
	slos    *slo.Tracker
	logger  *slog.Logger

	// fns is the function registry: a copy-on-write map swapped under mu
	// by Register and loaded lock-free by the invoke hot path. Each
	// *function carries its own mutex (the shard); the map itself is
	// immutable once published.
	fns atomic.Pointer[map[string]*function]

	// mu guards lifecycle state only — readiness, registration swaps,
	// the retired-multiplexer fold and the Close transition. The invoke
	// hot path never takes it.
	mu      sync.Mutex
	ready   bool
	retired multiplex.Stats

	closed atomic.Bool
	seq    atomic.Int64
	ctr    counters

	// The Invoke Mapper's windows. Each function gets its own
	// controller (built from dcfg at Register); the platform feeds
	// it offsets from epoch (now).
	dcfg  dispatch.Config
	epoch time.Time
	// traceShift is epoch's offset on the tracer's clock, the constant
	// that stamp adds to carry a platform instant onto a span.
	traceShift time.Duration

	// closing is closed by Close to wake retry backoff sleepers; drained
	// is closed by the one drain Close starts, when it has finished.
	closing chan struct{}
	drained chan struct{}
	wg      sync.WaitGroup
}

// fnsAll returns the current registry snapshot (immutable).
func (p *Platform) fnsAll() map[string]*function { return *p.fns.Load() }

// lookup resolves a function name without locking.
func (p *Platform) lookup(fn string) *function { return (*p.fns.Load())[fn] }

// unknownFunction is the error for a name lookup missed: the platform
// closed (and unregistered everything), or fn was never registered.
func (p *Platform) unknownFunction(fn string) error {
	if p.closed.Load() {
		return fmt.Errorf("platform: closed")
	}
	return fmt.Errorf("platform: unknown function %q", fn)
}

// New starts a platform. It runs no goroutine of its own: each function
// shard arms its own window and keep-alive timers. Close drains it. The
// platform starts not ready: call SetReady(true) once registration
// completes so /healthz reports ok (Invoke itself works regardless).
func New(cfg Config) (*Platform, error) {
	switch cfg.Mode {
	case ModeBatch:
	case ModeVanilla:
		// One container per invocation is the adaptive policy with groups
		// of one: every arrival closes its own window on the spot, so no
		// interval is ever waited out and none need be configured.
		cfg.AdaptiveDispatch, cfg.MaxGroupSize = true, 1
		cfg.MinInterval = 0
		if cfg.DispatchInterval <= 0 {
			cfg.DispatchInterval = DefaultConfig().DispatchInterval
		}
	default:
		return nil, fmt.Errorf("platform: unknown mode %d", int(cfg.Mode))
	}
	if cfg.DispatchInterval <= 0 {
		return nil, fmt.Errorf("platform: dispatch interval must be positive, got %v", cfg.DispatchInterval)
	}
	if cfg.MaxGroupSize < 0 {
		return nil, fmt.Errorf("platform: max group size must be non-negative, got %d", cfg.MaxGroupSize)
	}
	dcfg := dispatch.ConfigFor(cfg.AdaptiveDispatch, cfg.DispatchInterval, dispatch.Config{
		MinInterval:  cfg.MinInterval,
		MaxGroupSize: cfg.MaxGroupSize,
	})
	// Each function gets its own controller at Register; validate the
	// shared configuration once here.
	if err := dcfg.Validate(); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if cfg.ColdStart < 0 {
		return nil, fmt.Errorf("platform: cold start must be non-negative, got %v", cfg.ColdStart)
	}
	if cfg.KeepAlive <= 0 {
		return nil, fmt.Errorf("platform: keep-alive must be positive, got %v", cfg.KeepAlive)
	}
	if cfg.InvokeTimeout < 0 {
		return nil, fmt.Errorf("platform: invoke timeout must be non-negative, got %v", cfg.InvokeTimeout)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("platform: max retries must be non-negative, got %d", cfg.MaxRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("platform: retry backoff must be non-negative, got %v", cfg.RetryBackoff)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	var slos *slo.Tracker
	if len(cfg.SLOs) > 0 {
		var err error
		slos, err = slo.NewTracker(slo.DefaultWindows(), cfg.SLOs)
		if err != nil {
			return nil, err
		}
	}
	p := &Platform{
		cfg:     cfg,
		tracer:  cfg.Tracer,
		metrics: obs.NewMetrics(),
		slos:    slos,
		logger:  logger,
		dcfg:    dcfg,
		epoch:   time.Now(),
		closing: make(chan struct{}),
		drained: make(chan struct{}),
	}
	p.traceShift = p.tracer.Stamp(p.epoch)
	empty := make(map[string]*function)
	p.fns.Store(&empty)
	p.logger.Info("platform started",
		"mode", cfg.Mode.String(),
		"interval", cfg.DispatchInterval,
		"adaptive", cfg.AdaptiveDispatch,
		"multiplex", cfg.Multiplex,
		"tracing", cfg.Tracer != nil)
	return p, nil
}

// logOn reports whether the logger would emit at level, letting hot paths
// skip attribute construction entirely when logging is off.
func (p *Platform) logOn(level slog.Level) bool {
	return p.logger.Enabled(context.Background(), level)
}

// Metrics exposes the platform's histogram registry (never nil).
func (p *Platform) Metrics() *obs.Metrics { return p.metrics }

// Tracer exposes the platform's tracer (nil when tracing is disabled).
func (p *Platform) Tracer() *obs.Tracer { return p.tracer }

// SLOs exposes the platform's SLO tracker (nil when no objectives are
// configured; the nil tracker is safe to use).
func (p *Platform) SLOs() *slo.Tracker { return p.slos }

// WriteSLOMetrics appends the SLO burn-rate gauges to a /metrics
// exposition (nothing when no objectives are configured).
func (p *Platform) WriteSLOMetrics(w io.Writer) {
	p.slos.WriteMetrics(w, "faasbatch", p.now())
}

// Register adds a function. Registering a duplicate or empty name fails.
func (p *Platform) Register(name string, h Handler) error {
	if name == "" || h == nil {
		return fmt.Errorf("platform: register requires a name and a handler")
	}
	ctrl, err := dispatch.New(p.dcfg)
	if err != nil {
		// Unreachable: New validated dcfg.
		return fmt.Errorf("platform: %w", err)
	}
	f := &function{handler: h, shard: shard{name: name, keepAlive: p.cfg.KeepAlive, ctrl: ctrl}}
	// Both timers start disarmed: an AfterFunc timer stopped before it
	// fires never runs its callback.
	f.window = time.AfterFunc(time.Hour, func() { p.windowDue(f) })
	f.window.Stop()
	f.expire = time.AfterFunc(time.Hour, func() { p.expireIdle(f) })
	f.expire.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("platform: closed")
	}
	old := *p.fns.Load()
	if _, ok := old[name]; ok {
		return fmt.Errorf("platform: function %q already registered", name)
	}
	next := make(map[string]*function, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	f.latency = p.metrics.Function(name)
	next[name] = f
	p.fns.Store(&next)
	return nil
}

// SetReady flips the platform's readiness signal. A platform starts not
// ready: flip it true once function registration completes, so /healthz
// (and the routing tier's prober behind it) sees a truthful signal
// instead of a worker that would reject every invocation with "unknown
// function". Draining overrides readiness regardless of this flag.
func (p *Platform) SetReady(ready bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ready = ready
}

// Ready reports whether the platform is accepting work: marked ready and
// not draining.
func (p *Platform) Ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ready && !p.closed.Load()
}

// Draining reports whether Close has begun.
func (p *Platform) Draining() bool {
	return p.closed.Load()
}

// WorkerID reports the platform's fleet identity ("" when standalone).
func (p *Platform) WorkerID() string { return p.cfg.WorkerID }

// Inflight counts invocations accepted but not yet completed (canceled
// calls dropped before execution no longer count).
func (p *Platform) Inflight() int64 {
	return p.ctr.submitted.Load() - p.ctr.invocations.Load() - p.ctr.canceled.Load()
}

// Invoke runs one invocation and blocks until it completes. In ModeBatch
// the call waits for its window, travels with its group, and expands
// inside the group's container — on the calling goroutine: the handler
// runs where Invoke was called.
//
// If ctx ends while the call still waits for its window or a retry's
// backoff, Invoke returns at once and the call is dropped unexecuted
// (Stats.Canceled). Once the
// handler runs, Invoke returns when the handler does, reporting the
// wrapped ctx.Err() if the context ended meanwhile: a handler that
// ignores its context holds its caller until it returns. Bound such
// handlers with Config.InvokeTimeout, under which Invoke returns as soon
// as the deadline passes or ctx ends.
func (p *Platform) Invoke(ctx context.Context, fn string, payload json.RawMessage) (Result, error) {
	return p.InvokeWithTrace(ctx, fn, payload, 0)
}

// InvokeWithTrace is Invoke continuing a caller-supplied trace: a
// non-zero parent (from a traceparent header minted by the router or an
// external tracer) is adopted as this invocation's trace ID, so the
// worker's scheduling/cold-start/queuing/execution spans join the
// caller's distributed trace. Zero parent mints locally (sampled).
func (p *Platform) InvokeWithTrace(ctx context.Context, fn string, payload json.RawMessage, parent uint64) (Result, error) {
	f := p.lookup(fn)
	if f == nil {
		return Result{}, p.unknownFunction(fn)
	}
	return p.invoke(ctx, f, payload, parent)
}

// invoke is InvokeWithTrace for a function already looked up. Its res is
// the one Result of the invocation: every attempt fills it in place.
func (p *Platform) invoke(ctx context.Context, f *function, payload json.RawMessage, parent uint64) (res Result, err error) {
	call := getPendingCall()
	call.ctx = ctx
	call.payload = payload
	call.arrive = p.now()
	call.trace = p.tracer.BeginWith(parent)

	// Submission holds only this function's shard lock: Invokes on
	// different functions never contend. The closed check under f.mu
	// pairs with CloseContext's handshake over every shard — a call that
	// saw closed==false here has its wg.Add ordered before Close's Wait.
	f.mu.Lock()
	if p.closed.Load() {
		f.mu.Unlock()
		putPendingCall(call)
		return Result{}, fmt.Errorf("platform: closed")
	}
	p.ctr.submitted.Add(1)
	now := call.arrive
	o := f.step(evArrive, call, now)
	// Every function's arrivals share this gauge's cache line: store only
	// a change, so a steady window costs each arrival a read, not a write.
	if w := o.window.Microseconds(); p.ctr.dispatchWindowMicros.Load() != w {
		p.ctr.dispatchWindowMicros.Store(w)
	}
	run := p.applyLocked(f, o, now)
	f.mu.Unlock()
	if run != nil {
		// This arrival closed the window (fast path or early close), so it
		// hands the group its tickets — its own among them, waiting in the
		// select below.
		p.dispatchWindow(f, run)
	}
	for {
		var g *callGroup
		select {
		case g = <-call.ticket:
			// Already handed over — this caller's own ticket when its
			// arrival closed the window above — so ctx is not consulted:
			// some contexts (net/http's) build their Done channel on
			// first use.
		default:
			if g = p.awaitTicket(ctx, f, call); g == nil {
				// The call stays in the pending queue; the claim that
				// finds it there drops it.
				return Result{}, fmt.Errorf("platform: invoke %s: %w", f.name, ctx.Err())
			}
		}
		var rebatched bool
		err, rebatched = p.runTicket(f, call, g, &res)
		if !rebatched {
			putPendingCall(call)
			if cerr := ctx.Err(); cerr != nil {
				return Result{}, fmt.Errorf("platform: invoke %s: %w", f.name, cerr)
			}
			return res, err
		}
		if !p.retry(ctx, f, call) {
			return Result{}, fmt.Errorf("platform: invoke %s: %w", f.name, ctx.Err())
		}
	}
}

// awaitTicket blocks until call's ticket arrives or ctx ends. It returns
// nil when ctx ended first and the call was abandoned where it waits. A
// call already claimed when ctx ends is owed a ticket: that ticket is
// returned, and the attempt runs under the done context. A context that
// can never end (no Done channel) waits on a plain receive.
func (p *Platform) awaitTicket(ctx context.Context, f *function, call *pendingCall) *callGroup {
	done := ctx.Done()
	if done == nil {
		return <-call.ticket
	}
	select {
	case g := <-call.ticket:
		return g
	case <-done:
		f.mu.Lock()
		abandon := call.state == callWaiting
		if abandon {
			call.state = callAbandoned
		}
		f.mu.Unlock()
		if abandon {
			return nil
		}
		return <-call.ticket
	}
}

// applyLocked carries out one shard step's outcome at offset now: it
// arms or stops the window timer and drops the abandoned calls, and when
// the window closed on calls to run it counts the close and returns them
// as a pooled group holding a count on p.wg, which dispatchWindow pays.
// The four callers — an arrival, the window timer, a retry's re-entry and
// the Close flush — differ only in the goroutine that runs the group.
// Caller holds f.mu.
func (p *Platform) applyLocked(f *function, o outcome, now time.Duration) *callGroup {
	if o.arm > 0 {
		f.window.Reset(o.arm - now)
	}
	if o.disarm {
		f.window.Stop()
	}
	for _, call := range o.dropped {
		p.dropAbandoned(f, call)
	}
	if len(o.group) == 0 {
		return nil
	}
	switch o.action {
	case dispatch.ActionFastPath:
		p.ctr.fastPathDispatches.Add(1)
	case dispatch.ActionEarlyClose:
		p.ctr.earlyCloses.Add(1)
	case dispatch.ActionWindowClose:
		p.ctr.windowDispatches.Add(1)
	}
	p.recordWindowSpans(f, o.group, o.window, o.action.String())
	g := getGroup(len(o.group))
	g.calls = append(g.calls, o.group...)
	p.wg.Add(1)
	return g
}

// windowDue is f's window timer firing. The group of a window it closes
// is dispatched on the timer's own goroutine.
func (p *Platform) windowDue(f *function) {
	f.mu.Lock()
	now := p.now()
	g := p.applyLocked(f, f.step(evDue, nil, now), now)
	f.mu.Unlock()
	if g != nil {
		p.dispatchWindow(f, g)
	}
}

// dispatchWindow runs a closed window's group, then pays the count on
// p.wg that applyLocked took for it.
func (p *Platform) dispatchWindow(f *function, g *callGroup) {
	defer p.wg.Done()
	if p.logOn(slog.LevelDebug) {
		p.logger.Debug("dispatch window", "fn", f.name, "group", len(g.calls))
	}
	p.dispatchGroup(f, g)
}

// dropAbandoned retires a call whose caller's context ended before a
// group claimed it. The caller is gone, so the finder owns the call.
func (p *Platform) dropAbandoned(f *function, call *pendingCall) {
	p.ctr.canceled.Add(1)
	if p.logOn(slog.LevelDebug) {
		p.logger.Debug("canceled call dropped", "fn", f.name, "trace", call.trace)
	}
	putPendingCall(call)
}

// recordWindowSpans stamps one dispatch-window span per traced group
// member: arrival to window close, tagged with the chosen interval and
// why the window closed.
func (p *Platform) recordWindowSpans(f *function, group []*pendingCall, window time.Duration, reason string) {
	if p.tracer == nil {
		return
	}
	end := p.tracer.Now()
	detail := fmt.Sprintf("window %v [%s]", window, reason)
	for _, call := range group {
		if call.trace == 0 {
			continue
		}
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanDispatchWindow, Fn: f.name,
			Attempt: call.attempts + 1, Detail: detail,
			Start: p.stamp(call.arrive), End: end,
		})
	}
}

// expireIdle is f's keep-alive timer firing: it retires the containers
// parked KeepAlive or longer and re-arms for the oldest one left. Their
// caches close after f.mu is released, because closing runs the user's
// io.Closers and a slow one must not stall the shard; a count on p.wg,
// taken under f.mu, makes Close wait for them.
func (p *Platform) expireIdle(f *function) {
	f.mu.Lock()
	if p.closed.Load() {
		f.mu.Unlock()
		return
	}
	now := p.now()
	retired, next := f.evict(now)
	for _, c := range retired {
		if p.logOn(slog.LevelDebug) {
			p.logger.Debug("container evicted", "container", c.id, "fn", f.name, "idle", now-c.idleAt)
		}
	}
	if next > 0 {
		f.expire.Reset(next - now)
	}
	p.wg.Add(1)
	defer p.wg.Done()
	p.retireUnlock(f, retired...)
}

// retireUnlock accounts for containers the shard retired, folding each
// multiplexer's counters into the platform totals, then releases f.mu and
// closes their caches: closing runs the user's io.Closers, and a slow one
// must not stall the shard. Caller holds f.mu; the fold nests p.mu inside
// it (the only nesting order in the platform — nothing acquires a shard
// while holding p.mu).
func (p *Platform) retireUnlock(f *function, retired ...*container) {
	var caches []*multiplex.Cache
	for _, c := range retired {
		p.ctr.liveContainers.Add(-1)
		if cache := c.cache; cache != nil {
			st := cache.Stats()
			// Fold the counters, but not the gauges: its live instances
			// are released by the Close below.
			st.LiveInstances, st.BytesLive = 0, 0
			p.mu.Lock()
			p.retired.Add(st)
			p.mu.Unlock()
			caches = append(caches, cache)
		}
	}
	f.mu.Unlock()
	for _, cache := range caches {
		cache.Close()
	}
}

// containerCacheConfig derives one container's multiplexer config from
// Config.Multiplexer, layering the platform's instance-lifecycle hook on
// top of any user OnEvict: every instance leaving a cache (evicted,
// invalidated or released at container retirement) that implements
// io.Closer is closed, so cached clients release their sockets
// deterministically. The cache defers this hook for instances a running
// invocation borrowed (see Resources.GetContext), so the close lands
// after the last borrowing handler returns.
func (p *Platform) containerCacheConfig() multiplex.Config {
	mcfg := p.cfg.Multiplexer
	user := mcfg.OnEvict
	mcfg.OnEvict = func(k multiplex.Key, inst any, bytes int64) {
		if user != nil {
			user(k, inst, bytes)
		}
		if closer, ok := inst.(io.Closer); ok {
			if err := closer.Close(); err != nil && p.logOn(slog.LevelDebug) {
				p.logger.Debug("evicted client close failed", "callee", k.Callee, "err", err)
			}
		}
	}
	return mcfg
}

// acquire obtains a container for f's group of n: warm if available,
// else cold. The warm path is allocation-free: a pop from the shard's
// warm stack plus one atomic counter.
func (p *Platform) acquire(f *function, n int) (*container, bool) {
	f.mu.Lock()
	if c := f.reuse(n); c != nil {
		f.mu.Unlock()
		p.ctr.warmStarts.Add(1)
		return c, false
	}
	c := &container{id: fmt.Sprintf("live-%04d-%s", p.seq.Add(1), f.name)}
	if p.cfg.Multiplex {
		c.cache = multiplex.NewWithConfig(p.containerCacheConfig())
	}
	f.add(c, n)
	f.mu.Unlock()
	p.ctr.containersCreated.Add(1)
	p.ctr.liveContainers.Add(1)
	// Simulated boot outside the lock. Injected boot failures cost one
	// boot latency each and restart the boot; an injected slow cold start
	// inflates the final boot.
	boot, failed := p.cfg.ColdStart, time.Duration(0)
	for p.cfg.Chaos.Should(chaos.BootFailure) {
		p.ctr.bootFailures.Add(1)
		p.logger.Warn("container boot failed, retrying", "container", c.id, "fn", f.name)
		failed += boot
	}
	if p.cfg.Chaos.Should(chaos.SlowColdStart) {
		boot = time.Duration(float64(boot) * p.cfg.Chaos.ColdStartFactor())
		p.logger.Warn("slow cold start injected", "container", c.id, "fn", f.name, "boot", boot)
	}
	time.Sleep(failed + boot)
	if p.logOn(slog.LevelDebug) {
		p.logger.Debug("container created", "container", c.id, "fn", f.name, "boot", boot)
	}
	return c, true
}

// release returns a group's n members to their container, which parks
// warm once it drains, arming the keep-alive timer when the shard asks. A
// closed platform arms nothing: Close's drain retires what parks.
func (p *Platform) release(f *function, c *container, n int) {
	f.mu.Lock()
	now := p.now()
	if at := f.park(c, n, now); at > 0 && !p.closed.Load() {
		f.expire.Reset(at - now)
	}
	f.mu.Unlock()
}

// dispatchGroup is the closing half of the Inline-Parallel Producer: it
// acquires one container for the whole claimed group, fills the group in
// and hands it to every member as the ticket to run on — every member
// expands inside that container on its own caller's goroutine. It records
// each member's scheduling (arrival to dispatch) and cold-start spans; the
// member records queuing and execution. Span bounds are stamped from the
// same instants as the Result components, so an exported trace
// reconstructs the §IV decomposition exactly. The caller holds a count on
// p.wg and gives the group up: with its last ticket sent the group belongs
// to its members, who recycle it, and dispatchGroup touches neither it nor
// them afterwards.
func (p *Platform) dispatchGroup(f *function, g *callGroup) {
	p.metrics.ObserveGroupSize(len(g.calls))
	dispatch := p.now()
	c, cold := p.acquire(f, len(g.calls))
	ready := p.now()
	g.c, g.cold, g.dispatch, g.ready = c, cold, dispatch, ready
	if cold {
		g.coldDur = ready - dispatch
	}
	for _, call := range g.calls {
		if call.trace == 0 {
			continue
		}
		attempt := call.attempts + 1
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanScheduling, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: p.stamp(call.arrive), End: p.stamp(dispatch),
		})
		if cold {
			p.tracer.Record(obs.Span{
				Trace: call.trace, Name: obs.SpanColdStart, Fn: f.name, Container: c.id,
				Attempt: attempt, Start: p.stamp(dispatch), End: p.stamp(ready),
			})
		}
	}
	p.ctr.groups.Add(1)

	// Injected mid-batch container crash: the whole group fails at once —
	// the blast radius of the paper's one-container-per-group mapping.
	// The container is retired (not parked warm), so the next window
	// boots a replacement; each member retries or surfaces the crash.
	if p.cfg.Chaos.Should(chaos.ContainerCrash) {
		g.crash = fmt.Errorf("platform: container %s crashed", c.id)
		p.ctr.crashes.Add(1)
		f.mu.Lock()
		f.remove(c)
		p.retireUnlock(f, c)
		p.logger.Warn("container crashed mid-batch", "container", c.id, "fn", f.name, "group", len(g.calls))
	}

	g.remaining.Store(int32(len(g.calls)))
	// The group's count on p.wg, paid by its last member.
	p.wg.Add(1)
	// The range reads each member before its send, so the last member may
	// settle and recycle the group the instant the last send lands.
	for _, call := range g.calls {
		call.ticket <- g
	}
}

// runTicket is a member's half of the Inline-Parallel Producer: the
// caller runs its own call on the group it was handed, filling in res.
// The member that finishes last parks the container, recycles the group
// and pays its count on p.wg. It reports the call's error, or that the
// attempt failed into a retry and the call is waiting for its next ticket.
func (p *Platform) runTicket(f *function, call *pendingCall, g *callGroup, res *Result) (err error, rebatched bool) {
	if g.crash != nil {
		*res = Result{ContainerID: g.c.id, Cold: g.cold, TraceID: call.trace}
		res.Sched, res.ColdStart = g.dispatch-call.arrive, g.coldDur
		err = g.crash
		rebatched = p.finish(f, call, res, err)
	} else {
		err, rebatched = p.runCall(f, g, call, res)
	}
	if g.remaining.Add(-1) == 0 {
		if g.crash == nil {
			p.release(f, g.c, len(g.calls))
		}
		putGroup(g)
		p.wg.Done()
	}
	return err, rebatched
}

// runCall executes one group member inside its container, filling in res:
// pooled per-invocation state, the handler attempt, borrow release, spans,
// and settlement through finish (whose rebatched result it passes on).
func (p *Platform) runCall(f *function, g *callGroup, call *pendingCall, res *Result) (error, bool) {
	c := g.c
	start := p.now()
	// Every invocation gets its own multiplexer view: it scopes the
	// resource borrows released below, and on traced calls carries the
	// trace so client builds span on the invocation that paid for them.
	// The view, its borrow set and the Invocation come from a pool;
	// see pool.go for the recycling contract.
	st := getInvState()
	st.res.cache, st.res.inj = c.cache, p.cfg.Chaos
	st.res.borrows = &st.borrows
	if call.trace != 0 {
		st.res.tracer, st.res.trace = p.tracer, call.trace
		st.res.fn, st.res.container = f.name, c.id
	}
	st.inv.Payload = call.payload
	st.inv.Resources = &st.res
	st.inv.ContainerID = c.id
	value, err, returned := p.runHandler(f, call.ctx, &st.inv)
	// The handler is done with everything it borrowed; deferred
	// eviction closes fire now, before the result is published.
	st.borrows.releaseAll()
	end := p.now()
	if call.trace != 0 {
		attempt := call.attempts + 1
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanQueuing, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: p.stamp(g.ready), End: p.stamp(start),
		})
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanExecution, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: p.stamp(start), End: p.stamp(end),
		})
	}
	res.Value = value
	res.ContainerID = c.id
	res.Cold = g.cold
	res.Breakdown = obs.Breakdown{
		Sched:     g.dispatch - call.arrive,
		ColdStart: g.coldDur,
		Queue:     start - g.ready,
		Exec:      end - start,
	}
	res.TraceID = call.trace
	if err != nil {
		err = fmt.Errorf("platform: invoke %s: %w", f.name, err)
	}
	rebatched := p.finish(f, call, res, err)
	if returned {
		// The handler actually returned (it was not abandoned to an
		// InvokeTimeout), so nothing can touch this state again.
		putInvState(st)
	}
	return err, rebatched
}

// runHandler executes one handler attempt, layering on (in order) any
// injected handler faults and the InvokeTimeout deadline. With a deadline
// configured, a handler that never returns costs its group only the
// timeout — the rest of the batch completes and Close still drains —
// instead of wedging the whole group, though its goroutine is abandoned
// until the handler actually returns.
//
// The third result reports whether the handler has really returned by
// the time runHandler does: false on the timeout/cancellation branches,
// where the abandoned handler goroutine may still be running and
// touching the Invocation — the caller must not recycle per-attempt
// state then.
func (p *Platform) runHandler(f *function, ctx context.Context, inv *Invocation) (any, error, bool) {
	h := f.handler
	if inj := p.cfg.Chaos; inj != nil {
		switch {
		case inj.Should(chaos.HandlerError):
			h = func(context.Context, *Invocation) (any, error) {
				return nil, errors.New("injected handler error")
			}
		case inj.Should(chaos.HandlerPanic):
			h = func(context.Context, *Invocation) (any, error) {
				panic("injected handler panic")
			}
		case inj.Should(chaos.HandlerHang):
			orig := h
			hang := inj.HangDuration()
			h = func(ctx context.Context, inv *Invocation) (any, error) {
				// Bounded hang: long enough to trip InvokeTimeout, short
				// enough that abandoned goroutines settle in tests.
				select {
				case <-time.After(hang):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return orig(ctx, inv)
			}
		}
	}
	if p.cfg.InvokeTimeout <= 0 {
		value, err := safeInvoke(h, ctx, inv)
		p.notePanic(err)
		return value, err, true
	}
	tctx, cancel := context.WithTimeout(ctx, p.cfg.InvokeTimeout)
	defer cancel()
	type attempt struct {
		value any
		err   error
	}
	ch := make(chan attempt, 1)
	go func() {
		v, err := safeInvoke(h, tctx, inv)
		ch <- attempt{v, err}
	}()
	select {
	case a := <-ch:
		p.notePanic(a.err)
		return a.value, a.err, true
	case <-tctx.Done():
		if ctx.Err() != nil {
			// The caller's own context ended; not an invoke timeout.
			return nil, ctx.Err(), false
		}
		p.ctr.timeouts.Add(1)
		return nil, fmt.Errorf("handler exceeded invoke timeout %v: %w",
			p.cfg.InvokeTimeout, context.DeadlineExceeded), false
	}
}

// notePanic counts a recovered handler panic. The nil check comes before
// the target declaration: errors.As forces its target to the heap, and
// returning first keeps the happy path allocation-free.
func (p *Platform) notePanic(err error) {
	if err == nil {
		return
	}
	var pe panicError
	if errors.As(err, &pe) {
		p.ctr.panics.Add(1)
	}
}

// finish settles one attempt, on its caller's goroutine: a failed attempt
// with retry budget left reports true, and its caller re-enters a later
// dispatch window (retry). Anything else completes the invocation exactly
// once, stamping res.Attempts.
func (p *Platform) finish(f *function, call *pendingCall, res *Result, err error) bool {
	call.attempts++
	if err != nil && call.attempts <= p.cfg.MaxRetries && call.ctx.Err() == nil {
		f.mu.Lock()
		// Add under the shard lock while open: CloseContext sets closed
		// and then handshakes every shard before Wait, so this Add is
		// ordered before that Wait.
		retry := !p.closed.Load()
		if retry {
			p.wg.Add(1)
		}
		f.mu.Unlock()
		if retry {
			p.ctr.retries.Add(1)
			if p.logOn(slog.LevelInfo) {
				p.logger.Info("retrying invocation",
					"fn", f.name, "attempt", call.attempts, "trace", call.trace, "err", err)
			}
			return true
		}
	}
	res.Attempts = call.attempts
	p.ctr.invocations.Add(1)
	if err != nil {
		p.ctr.failures.Add(1)
		p.logger.Warn("invocation failed",
			"fn", f.name, "attempts", call.attempts, "trace", call.trace, "err", err)
	}
	f.latency.Observe(res.Breakdown)
	if p.slos != nil {
		p.slos.Observe(f.name, res.Total(), err != nil, p.now())
	}
	return false
}

// retry re-batches a failed call into a later dispatch window after an
// exponential backoff, on its caller's goroutine, and pays the count on
// p.wg that finish took. Close wakes the backoff early (closing), and a
// retry re-entering a closing platform flushes at once, so draining never
// strands a retry. It reports false when ctx ended during the backoff: the
// call is then dropped, not re-batched.
func (p *Platform) retry(ctx context.Context, f *function, call *pendingCall) bool {
	defer p.wg.Done()
	if p.cfg.RetryBackoff > 0 {
		backoff := p.cfg.RetryBackoff << uint(call.attempts-1)
		backoffStart := p.tracer.Now()
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-p.closing:
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
			p.dropAbandoned(f, call)
			return false
		}
		if call.trace != 0 {
			p.tracer.Record(obs.Span{
				Trace: call.trace, Name: obs.SpanRetryBackoff, Fn: f.name,
				Attempt: call.attempts, Start: backoffStart, End: p.tracer.Now(),
			})
		}
	}
	ev := evRetry
	f.mu.Lock()
	if p.closed.Load() {
		ev = evFlush
	}
	now := p.now()
	g := p.applyLocked(f, f.step(ev, call, now), now)
	f.mu.Unlock()
	if g != nil {
		p.dispatchWindow(f, g)
	}
	return true
}

// now is the platform's clock: the offset from its epoch, one monotonic
// read. Every instant of the invoke path and every shard decision (timer
// firings, parks, retries) is read through it.
func (p *Platform) now() time.Duration { return time.Since(p.epoch) }

// stamp carries an instant of the platform's clock onto the tracer's by
// the constant traceShift, so span bounds are the very readings the
// Result components are differences of.
func (p *Platform) stamp(at time.Duration) time.Duration { return at + p.traceShift }

// panicError is a recovered handler panic; its message keeps the
// "handler panicked" shape handlers' callers rely on while letting the
// platform classify panics apart from ordinary errors.
type panicError struct{ v any }

// Error implements error.
func (e panicError) Error() string { return fmt.Sprintf("handler panicked: %v", e.v) }

// safeInvoke runs a handler, converting a panic into an error so one
// misbehaving function cannot take down the whole batch (a real container
// would crash alone; our containers are goroutines).
func safeInvoke(h Handler, ctx context.Context, inv *Invocation) (value any, err error) {
	defer func() {
		if r := recover(); r != nil {
			value = nil
			err = panicError{v: r}
		}
	}()
	return h(ctx, inv)
}

// Functions lists the registered function names, sorted.
func (p *Platform) Functions() []string {
	m := p.fnsAll()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the platform counters, folding in retired
// and live containers' multiplexer statistics.
func (p *Platform) Stats() Stats {
	st := Stats{
		Submitted:            p.ctr.submitted.Load(),
		Canceled:             p.ctr.canceled.Load(),
		Invocations:          p.ctr.invocations.Load(),
		Failures:             p.ctr.failures.Load(),
		Retries:              p.ctr.retries.Load(),
		Timeouts:             p.ctr.timeouts.Load(),
		Panics:               p.ctr.panics.Load(),
		Crashes:              p.ctr.crashes.Load(),
		BootFailures:         p.ctr.bootFailures.Load(),
		Groups:               p.ctr.groups.Load(),
		FastPathDispatches:   p.ctr.fastPathDispatches.Load(),
		EarlyCloses:          p.ctr.earlyCloses.Load(),
		WindowDispatches:     p.ctr.windowDispatches.Load(),
		DispatchWindowMicros: p.ctr.dispatchWindowMicros.Load(),
		ContainersCreated:    p.ctr.containersCreated.Load(),
		WarmStarts:           p.ctr.warmStarts.Load(),
		LiveContainers:       int(p.ctr.liveContainers.Load()),
	}
	p.mu.Lock()
	st.Multiplexer = p.retired
	p.mu.Unlock()
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		for _, c := range f.all {
			if c.cache != nil {
				st.Multiplexer.Add(c.cache.Stats())
			}
		}
		f.mu.Unlock()
	}
	return st
}

// Close flushes pending windows, stops every shard's timers, waits for
// in-flight groups and retries to drain, then retires every warm
// container, closing its multiplexer and so its cached clients'
// io.Closers. Invocations submitted after Close fail. Close waits
// without a deadline; CloseContext bounds the wait.
func (p *Platform) Close() error { return p.CloseContext(context.Background()) }

// CloseContext is Close bounded by the caller's context, so a server
// shutdown can share one deadline between
// http.Server.Shutdown and the platform drain (cmd/faasgate) rather than
// racing two independent timeouts. The first call starts the one drain;
// every call, first or later, returns when that drain has finished, or
// reports an error when its own context ends first, leaving the drain to
// run on behind it.
func (p *Platform) CloseContext(ctx context.Context) error {
	p.mu.Lock()
	first := !p.closed.Load()
	p.closed.Store(true)
	p.mu.Unlock()
	if first {
		p.flush()
		go p.drain()
	}
	select {
	case <-p.drained:
		return nil
	case <-ctx.Done():
		// A select picks at random among ready cases: a drain that is
		// over wins over a context that ended too.
		select {
		case <-p.drained:
			return nil
		default:
		}
		return fmt.Errorf("platform: close: drain exceeded its deadline: %w", ctx.Err())
	}
}

// flush is Close's shard handshake and flush: it holds every function's
// mutex once. Any Invoke, retry settlement or timer firing that observed
// closed==false did its wg.Add inside a shard critical section that
// strictly precedes this one, so the Add is ordered before drain's Wait;
// anything acquiring a shard after it sees closed==true and rejects, or (a
// timer firing) returns. Registration after the closed store is rejected
// under p.mu, so this snapshot covers every shard. It then wakes any
// backoff sleepers, whose retries dispatch at once.
func (p *Platform) flush() {
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		f.expire.Stop()
		now := p.now()
		g := p.applyLocked(f, f.step(evFlush, nil, now), now)
		f.mu.Unlock()
		if g != nil {
			// Its own goroutine: acquiring the group's container may sleep
			// a cold start, and other shards wait to be flushed.
			go p.dispatchWindow(f, g)
		}
	}
	close(p.closing)
}

// drain waits out the work Close let finish, then retires every container
// left parked in the warm stacks, so each multiplexer closes and its
// cached clients' io.Closers run. Retiring only after the wait lets the
// flushed groups and the retries Close woke take a parked container
// rather than boot one. Nothing parks afterwards: every path to release
// holds a count on p.wg, and a closed platform admits no new work. Each
// shard's caches close after its f.mu is released. Then it closes drained,
// which every CloseContext call waits on.
func (p *Platform) drain() {
	p.wg.Wait()
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		// Expiring at the end of time retires every parked container.
		retired, _ := f.evict(math.MaxInt64)
		p.retireUnlock(f, retired...)
	}
	close(p.drained)
}
