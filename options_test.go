package faasbatch_test

import (
	"testing"

	faasbatch "faasbatch"
)

// TestNewRouterFunctionalOptions drives the routing tier's construction
// surface through the facade: the policy option composes with the
// config struct's pull tuning, and overrides a policy the struct names.
func TestNewRouterFunctionalOptions(t *testing.T) {
	cfg := faasbatch.RouterConfig{
		Workers: []faasbatch.RouterWorkerSpec{{ID: "w1", URL: "http://w1.invalid"}},
		Pull:    &faasbatch.PullConfig{QueueDepth: 8},
	}
	rt, err := faasbatch.NewRouter(cfg,
		faasbatch.WithRouterPolicy(faasbatch.RouterPolicyPull),
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

	cfg.Policy = faasbatch.RouterPolicyPull
	rt, err = faasbatch.NewRouter(cfg,
		faasbatch.WithRouterPolicy(faasbatch.RouterPolicyHash),
	)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if got := rt.Policy().Name(); got != faasbatch.RouterPolicyHash {
		t.Fatalf("policy set both ways = %q, want the option's %q", got, faasbatch.RouterPolicyHash)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
