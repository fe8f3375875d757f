package faasbatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	faasbatch "faasbatch"
)

// TestPublicAPILivePlatform drives the live runtime end to end through
// the exported facade only.
func TestPublicAPILivePlatform(t *testing.T) {
	cfg := faasbatch.DefaultPlatformConfig()
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 5 * time.Millisecond
	p, err := faasbatch.NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	err = p.Register("greet", func(ctx context.Context, inv *faasbatch.Invocation) (any, error) {
		client, _, err := inv.Resources.GetContext(ctx, "greeter", "en", func() (any, int64, error) {
			return "Hello", 1 << 10, nil
		})
		if err != nil {
			return nil, err
		}
		var name string
		if err := json.Unmarshal(inv.Payload, &name); err != nil {
			return nil, err
		}
		return client.(string) + ", " + name, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	res, err := p.Invoke(context.Background(), "greet", json.RawMessage(`"world"`))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Value != "Hello, world" {
		t.Fatalf("Value = %v", res.Value)
	}
	if res.Total() <= 0 {
		t.Fatalf("latency decomposition empty: %+v", res)
	}

	// And over HTTP.
	srv := httptest.NewServer(faasbatch.NewHTTPHandler(p))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/invoke", "application/json",
		strings.NewReader(`{"fn":"greet","payload":"gopher"}`))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(out.Result) != `"Hello, gopher"` {
		t.Fatalf("http result = %s", out.Result)
	}
}

// TestPublicAPIExperimentHarness reproduces a small evaluation run
// through the facade.
func TestPublicAPIExperimentHarness(t *testing.T) {
	cfg := faasbatch.DefaultBurstConfig(faasbatch.IO)
	cfg.N = 80
	cfg.Span = 10 * time.Second
	tr, err := faasbatch.SynthesizeBurst(cfg)
	if err != nil {
		t.Fatalf("SynthesizeBurst: %v", err)
	}
	res, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
		Policy: faasbatch.PolicyFaaSBatch,
		Trace:  tr,
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if len(res.Records) != tr.Len() {
		t.Fatalf("records = %d, want %d", len(res.Records), tr.Len())
	}
	if res.CDF(faasbatch.Execution).P(0.5) > 100*time.Millisecond {
		t.Fatal("multiplexed exec median above the 10-100ms band")
	}
}

// TestPublicAPIFigures lists and runs a registry entry via the facade.
func TestPublicAPIFigures(t *testing.T) {
	figs := faasbatch.Figures()
	if len(figs) < 12 {
		t.Fatalf("registry has %d entries", len(figs))
	}
	fig, ok := faasbatch.FigureByID("fig9")
	if !ok {
		t.Fatal("fig9 missing")
	}
	var b strings.Builder
	if err := fig.Run(&b, faasbatch.FigureOptions{Scale: 0.01, Seed: 1}); err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if !strings.Contains(b.String(), "duration range") {
		t.Fatalf("fig9 output malformed:\n%s", b.String())
	}
}

// TestPublicAPICluster replays a tiny trace on a fleet via the facade.
func TestPublicAPICluster(t *testing.T) {
	cfg := faasbatch.DefaultBurstConfig(faasbatch.CPUIntensive)
	cfg.N = 40
	cfg.Span = 5 * time.Second
	tr, err := faasbatch.SynthesizeBurst(cfg)
	if err != nil {
		t.Fatalf("SynthesizeBurst: %v", err)
	}
	res, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
		Policy:    faasbatch.PolicyFaaSBatch,
		Trace:     tr,
		Seed:      1,
		Nodes:     2,
		Balancing: faasbatch.FnAffinity,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if len(res.Records) != tr.Len() || len(res.ContainersPerNode) != 2 {
		t.Fatalf("cluster result = %d records on %d nodes", len(res.Records), len(res.ContainersPerNode))
	}
}

// TestPublicAPIAzureReplay drives the Azure-dataset path via the facade.
func TestPublicAPIAzureReplay(t *testing.T) {
	row := faasbatch.AzureFunctionRow{
		Owner: "o", App: "a", Function: "hot", Trigger: "http",
		PerMinute: make([]int, 1440),
	}
	row.PerMinute[1330] = 12
	var buf strings.Builder
	// Round-trip through the wire format the public dataset uses.
	if err := writeAzure(&buf, row); err != nil {
		t.Fatalf("write: %v", err)
	}
	rows, err := faasbatch.ReadAzureInvocationsCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadAzureInvocationsCSV: %v", err)
	}
	tr, err := faasbatch.FromAzureRows(rows, faasbatch.DefaultAzureReplayOptions())
	if err != nil {
		t.Fatalf("FromAzureRows: %v", err)
	}
	if tr.Len() != 12 {
		t.Fatalf("replay len = %d, want 12", tr.Len())
	}
	res, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
		Policy: faasbatch.PolicyFaaSBatch,
		Trace:  tr,
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

// writeAzure emits one row in the dataset schema.
func writeAzure(w *strings.Builder, row faasbatch.AzureFunctionRow) error {
	w.WriteString("HashOwner,HashApp,HashFunction,Trigger")
	for m := 1; m <= 1440; m++ {
		fmt.Fprintf(w, ",%d", m)
	}
	w.WriteString("\n")
	fmt.Fprintf(w, "%s,%s,%s,%s", row.Owner, row.App, row.Function, row.Trigger)
	for _, c := range row.PerMinute {
		fmt.Fprintf(w, ",%d", c)
	}
	w.WriteString("\n")
	return nil
}
