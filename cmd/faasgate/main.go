// Command faasgate runs the live FaaSBatch gateway: a miniature serverless
// platform serving real Go functions over HTTP with window batching,
// inline-parallel expansion and resource multiplexing.
//
// Usage:
//
//	faasgate                       # FaaSBatch mode on :8080
//	faasgate -mode vanilla         # per-invocation containers
//	faasgate -interval 100ms       # dispatch window
//	faasgate -no-multiplex         # disable the Resource Multiplexer
//	faasgate -trace-out t.json     # record invocation traces (Perfetto)
//	faasgate -slo 'fib:p99_ms=250' # burn-rate gauges on /metrics
//	faasgate -pprof                # serve /debug/pprof/
//	faasgate -log-level debug      # structured logs on stderr
//	faasgate -worker-id w1         # fleet worker behind cmd/faasrouter:
//	                               # /healthz advertises its identity
//
// Built-in demo functions:
//
//	fib       {"n": 30}        CPU-intensive Fibonacci
//	s3upload  {"bucket": "b"}  creates a (fake) S3 client via the
//	                           Resource Multiplexer, then "uploads"
//	echo      any payload      returns the payload
//
// Try:
//
//	curl -s localhost:8080/invoke -d '{"fn":"fib","payload":{"n":30}}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/hashmix"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/slo"
	"faasbatch/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faasgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faasgate", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	mode := fs.String("mode", "faasbatch", "scheduling mode: faasbatch or vanilla")
	interval := fs.Duration("interval", 200*time.Millisecond, "dispatch interval (faasbatch mode)")
	adaptive := fs.Bool("adaptive", false, "adaptive dispatch windows: size per-function windows from the arrival rate, capped at -interval")
	minInterval := fs.Duration("min-interval", 0, "adaptive window floor (0 = platform default)")
	maxGroup := fs.Int("max-group", 0, "early-close an adaptive window at this group size (0 = no cap)")
	coldStart := fs.Duration("coldstart", 100*time.Millisecond, "simulated container boot time")
	keepAlive := fs.Duration("keepalive", 2*time.Minute, "idle container keep-alive")
	noMux := fs.Bool("no-multiplex", false, "disable the Resource Multiplexer")
	invokeTimeout := fs.Duration("invoke-timeout", 0, "per-attempt handler deadline (0 = none)")
	maxRetries := fs.Int("max-retries", 0, "extra attempts for failed invocations, re-batched into later windows")
	retryBackoff := fs.Duration("retry-backoff", 0, "base retry delay, doubled per attempt (0 = next window)")
	workerID := fs.String("worker-id", "", "fleet identity advertised in /healthz and invoke responses (worker mode, behind faasrouter)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "one deadline covering HTTP drain and platform drain on SIGINT/SIGTERM")
	chaosRate := fs.Float64("chaos-rate", 0, "inject every fault kind at this rate in [0,1) (0 = off)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the fault schedule (same seed, same faults)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file here on exit (enables tracing)")
	traceSample := fs.Int("trace-sample", 1, "trace 1 in N invocations (with -trace-out)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	var slos []slo.Objective
	fs.Func("slo", "per-function SLO objective 'fn:p99_ms=250:max_burn=2' or 'fn:availability=0.999' (repeatable; exports faasbatch_slo_* gauges on /metrics)", func(v string) error {
		obj, err := parseSLO(v)
		if err != nil {
			return err
		}
		slos = append(slos, obj)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	cfg := platform.DefaultConfig()
	cfg.Logger = logger
	cfg.DispatchInterval = *interval
	cfg.AdaptiveDispatch = *adaptive
	cfg.MinInterval = *minInterval
	cfg.MaxGroupSize = *maxGroup
	cfg.ColdStart = *coldStart
	cfg.KeepAlive = *keepAlive
	cfg.Multiplex = !*noMux
	cfg.InvokeTimeout = *invokeTimeout
	cfg.MaxRetries = *maxRetries
	cfg.RetryBackoff = *retryBackoff
	cfg.WorkerID = *workerID
	cfg.SLOs = slos
	if *chaosRate < 0 {
		return fmt.Errorf("-chaos-rate must be in [0, 1), got %v", *chaosRate)
	}
	if *chaosRate > 0 {
		inj, err := chaos.New(chaos.Config{Seed: *chaosSeed, Rates: chaos.Uniform(*chaosRate)})
		if err != nil {
			return err
		}
		cfg.Chaos = inj
	}
	switch *mode {
	case "faasbatch":
		cfg.Mode = platform.ModeBatch
	case "vanilla":
		cfg.Mode = platform.ModeVanilla
	default:
		return fmt.Errorf("unknown mode %q (faasbatch or vanilla)", *mode)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		if *traceSample < 1 {
			return fmt.Errorf("-trace-sample must be >= 1, got %d", *traceSample)
		}
		// Salt locally minted trace IDs with the worker identity so a
		// fleet's per-process traces never alias when stitched
		// (cmd/faasstitch); a lone gateway keeps unsalted IDs.
		var salt uint64
		if *workerID != "" {
			salt = hashmix.String("faasgate|" + *workerID)
		}
		tracer, err = obs.NewWallTracerWithSalt(0, *traceSample, salt)
		if err != nil {
			return err
		}
		cfg.Tracer = tracer
	}

	p, err := platform.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		// A no-op after serveUntilSignal drained the platform; otherwise
		// the drain gets the same deadline a signal would have.
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if cerr := p.CloseContext(ctx); cerr != nil {
			fmt.Fprintln(os.Stderr, "faasgate: close:", cerr)
		}
		if tracer != nil {
			if terr := writeTraceFile(*traceOut, tracer); terr != nil {
				fmt.Fprintln(os.Stderr, "faasgate: trace:", terr)
			}
		}
	}()
	if err := registerDemoFunctions(p); err != nil {
		return err
	}
	// Registration is complete: /healthz may truthfully report ready.
	p.SetReady(true)

	fmt.Printf("faasgate: %s mode, interval %v, adaptive %v, multiplex %v, listening on %s\n",
		cfg.Mode, cfg.DispatchInterval, cfg.AdaptiveDispatch, cfg.Multiplex, *addr)
	handler := platform.NewHTTPHandler(p)
	if *pprofOn {
		handler = withPprof(handler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntilSignal(srv, p, *shutdownTimeout)
}

// withPprof mounts the net/http/pprof handlers in front of the gateway
// mux. /debug/traces stays with the platform handler; only /debug/pprof/
// is intercepted.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sloQuantiles maps the latency objective keys of -slo to their
// quantiles, mirroring the scenario engine's slo invariant keys.
var sloQuantiles = map[string]float64{
	"p50_ms": 0.50, "p90_ms": 0.90, "p95_ms": 0.95, "p99_ms": 0.99,
}

// parseSLO decodes one -slo value: a function name followed by
// colon-separated key=value settings, e.g. "fib:p99_ms=250:max_burn=2"
// or "echo:availability=0.999". Exactly one objective key (pXX_ms or
// availability) is required; max_burn defaults to 2.
func parseSLO(v string) (slo.Objective, error) {
	parts := strings.Split(v, ":")
	obj := slo.Objective{Function: parts[0], MaxBurn: 2}
	if obj.Function == "" {
		return obj, fmt.Errorf("-slo %q: needs a function name", v)
	}
	objectives := 0
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return obj, fmt.Errorf("-slo %q: bad setting %q, want key=value", v, part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return obj, fmt.Errorf("-slo %q: bad value %q: %v", v, val, err)
		}
		switch {
		case sloQuantiles[key] != 0:
			objectives++
			obj.Quantile = sloQuantiles[key]
			obj.Target = time.Duration(f * float64(time.Millisecond))
			if obj.Target <= 0 {
				return obj, fmt.Errorf("-slo %q: %s must be a positive millisecond bound", v, key)
			}
		case key == "availability":
			objectives++
			obj.Quantile = f
		case key == "max_burn":
			obj.MaxBurn = f
		default:
			return obj, fmt.Errorf("-slo %q: unknown key %q", v, key)
		}
	}
	if objectives != 1 {
		return obj, fmt.Errorf("-slo %q: needs exactly one objective key (p50_ms/p90_ms/p95_ms/p99_ms or availability), got %d", v, objectives)
	}
	if err := obj.Validate(); err != nil {
		return obj, fmt.Errorf("-slo %q: %v", v, err)
	}
	return obj, nil
}

// writeTraceFile exports the tracer's ring buffer to path.
func writeTraceFile(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("faasgate: wrote trace to %s (%d spans dropped)\n", path, tracer.Dropped())
	return nil
}

// serveUntilSignal runs the server until it fails or the process receives
// SIGINT/SIGTERM, then drains: readiness is flipped first (so the routing
// tier's prober sees the worker going away), and one context deadline
// covers both the HTTP drain and the platform drain — srv.Shutdown's
// cancellation propagates into the platform's CloseContext instead of
// racing two independent timeouts. p may be nil (plain servers in tests).
func serveUntilSignal(srv *http.Server, p *platform.Platform, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case sig := <-sigc:
		fmt.Printf("faasgate: %v, draining ...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if p != nil {
			p.SetReady(false)
		}
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if p != nil {
			if err := p.CloseContext(ctx); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
		}
		return nil
	}
}

// registerDemoFunctions installs the gateway's built-in functions.
func registerDemoFunctions(p *platform.Platform) error {
	if err := p.Register("fib", fibHandler); err != nil {
		return err
	}
	if err := p.Register("s3upload", s3UploadHandler); err != nil {
		return err
	}
	return p.Register("echo", func(_ context.Context, inv *platform.Invocation) (any, error) {
		return json.RawMessage(inv.Payload), nil
	})
}

// fibHandler burns real CPU, like the paper's benchmark function.
func fibHandler(_ context.Context, inv *platform.Invocation) (any, error) {
	var req struct {
		N int `json:"n"`
	}
	if len(inv.Payload) > 0 {
		if err := json.Unmarshal(inv.Payload, &req); err != nil {
			return nil, fmt.Errorf("decode payload: %w", err)
		}
	}
	if req.N <= 0 {
		req.N = 30
	}
	if req.N > 40 {
		return nil, fmt.Errorf("n %d too large (max 40)", req.N)
	}
	return map[string]int{"n": req.N, "fib": workload.Fib(req.N)}, nil
}

// fakeS3Client stands in for a boto3 client: expensive to build, cheap to
// use.
type fakeS3Client struct {
	bucket string
}

// put simulates a blob upload.
func (c *fakeS3Client) put(key string) string {
	return fmt.Sprintf("s3://%s/%s", c.bucket, key)
}

// s3UploadHandler creates a client through the Resource Multiplexer
// (Listing 1) and performs an upload.
func s3UploadHandler(ctx context.Context, inv *platform.Invocation) (any, error) {
	var req struct {
		Bucket string `json:"bucket"`
		Key    string `json:"key"`
	}
	if len(inv.Payload) > 0 {
		if err := json.Unmarshal(inv.Payload, &req); err != nil {
			return nil, fmt.Errorf("decode payload: %w", err)
		}
	}
	if req.Bucket == "" {
		req.Bucket = "demo-bucket"
	}
	if req.Key == "" {
		req.Key = "object"
	}
	client, outcome, err := inv.Resources.GetContext(ctx, "s3.client", req.Bucket, func() (any, int64, error) {
		// Construction cost, as in Fig. 4 (scaled down for the demo).
		time.Sleep(66 * time.Millisecond)
		return &fakeS3Client{bucket: req.Bucket}, 15 << 20, nil
	})
	if err != nil {
		return nil, err
	}
	s3, ok := client.(*fakeS3Client)
	if !ok {
		return nil, fmt.Errorf("unexpected client type %T", client)
	}
	return map[string]any{"url": s3.put(req.Key), "clientCached": outcome.Cached()}, nil
}
