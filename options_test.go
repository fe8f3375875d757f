package faasbatch_test

import (
	"strings"
	"testing"

	faasbatch "faasbatch"
)

// TestNewRouterFunctionalOptions drives the routing tier's construction
// surface through the facade: options compose with the config struct,
// and double-set knobs fail loudly.
func TestNewRouterFunctionalOptions(t *testing.T) {
	cfg := faasbatch.RouterConfig{
		Workers: []faasbatch.RouterWorkerSpec{{ID: "w1", URL: "http://w1.invalid"}},
	}
	rt, err := faasbatch.NewRouter(cfg,
		faasbatch.WithRouterPullConfig(faasbatch.PullConfig{QueueDepth: 8}),
	)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if got := rt.Policy().Name(); got != faasbatch.RouterPolicyPull {
		t.Fatalf("policy = %q, want %q", got, faasbatch.RouterPolicyPull)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, err = faasbatch.NewRouter(cfg,
		faasbatch.WithRouterPolicy(faasbatch.RouterPolicyHash),
		faasbatch.WithRouterPullConfig(faasbatch.PullConfig{}),
	)
	if err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("contradictory policy options: err = %v, want a policy conflict", err)
	}
}
