package router

import (
	"testing"

	"faasbatch/internal/pullsched"
)

// optSpecs is a minimal valid worker set for option tests.
func optSpecs() []WorkerSpec {
	return []WorkerSpec{{ID: "w1", URL: "http://w1.invalid"}}
}

func TestOptionsApply(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"option alone", Config{}},
		{"option over Config.Policy", Config{Policy: PolicyHash}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = optSpecs()
			rt, err := New(tc.cfg, WithPolicy(PolicyPull))
			if err != nil {
				t.Fatalf("New with options: %v", err)
			}
			defer func() { _ = rt.Close() }()
			if rt.Policy().Name() != PolicyPull {
				t.Fatalf("policy = %q, want pull", rt.Policy().Name())
			}
		})
	}
}

// WithPolicy(PolicyPull) plus Config.Pull tuning compose: the option
// names the policy, the struct tunes it.
func TestPullConfigWithMatchingPolicy(t *testing.T) {
	rt, err := New(Config{Workers: optSpecs(), Pull: &pullsched.Config{QueueDepth: 2}},
		WithPolicy(PolicyPull))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = rt.Close() }()
	if rt.Policy().Name() != PolicyPull {
		t.Fatalf("policy = %q, want pull", rt.Policy().Name())
	}
	if d := rt.policy.(*pullPolicy).core.Config().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Config{Workers: optSpecs(), Policy: "mystery"}); err == nil {
		t.Fatal("New accepted an unknown policy")
	}
}
