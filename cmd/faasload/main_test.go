package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faasbatch/internal/platform"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// startGateway boots an in-process gateway with cheap versions of the
// demo functions the loader targets.
func startGateway(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 0
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatalf("platform.New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	register := func(name string, h platform.Handler) {
		if err := p.Register(name, h); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	register("fib", func(_ context.Context, inv *platform.Invocation) (any, error) {
		var req struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(inv.Payload, &req); err != nil {
			return nil, err
		}
		return req.N, nil
	})
	register("s3upload", func(ctx context.Context, inv *platform.Invocation) (any, error) {
		_, _, err := inv.Resources.GetContext(ctx, "s3.client", "k", func() (any, int64, error) {
			return "client", 1, nil
		})
		return "ok", err
	})
	srv := httptest.NewServer(platform.NewHTTPHandler(p))
	t.Cleanup(srv.Close)
	return srv
}

// writeTrace writes a small trace CSV for the loader.
func writeTrace(t *testing.T, kind workload.Kind, n int) string {
	t.Helper()
	cfg := trace.DefaultBurstConfig(kind)
	cfg.N = n
	cfg.Span = 500 * time.Millisecond
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		t.Fatalf("SynthesizeBurst: %v", err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := trace.WriteCSV(f, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}, os.Stdout); err == nil {
		t.Error("missing -trace accepted")
	}
	if err := run([]string{"-trace", "x.csv", "-speedup", "0"}, os.Stdout); err == nil {
		t.Error("zero speedup accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist.csv"}, os.Stdout); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := run([]string{"-bogus"}, os.Stdout); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestReplayCPUTraceEndToEnd(t *testing.T) {
	srv := startGateway(t)
	path := writeTrace(t, workload.CPUIntensive, 20)
	if err := run([]string{"-trace", path, "-url", srv.URL, "-speedup", "20"}, os.Stdout); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReplayIOTraceWithLimit(t *testing.T) {
	srv := startGateway(t)
	path := writeTrace(t, workload.IO, 30)
	if err := run([]string{"-trace", path, "-url", srv.URL, "-speedup", "20", "-n", "10"}, os.Stdout); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReplayAgainstDeadGatewayFails(t *testing.T) {
	path := writeTrace(t, workload.IO, 3)
	err := run([]string{"-trace", path, "-url", "http://127.0.0.1:1", "-speedup", "100", "-timeout", "1s"}, os.Stdout)
	if err == nil {
		t.Fatal("dead gateway accepted")
	}
}
