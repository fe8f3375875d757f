package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// fibBucketIndex maps a sampled N back to its Fig. 9 bucket.
func fibBucketIndex(t *testing.T, n int) int {
	t.Helper()
	for i, ns := range bucketFibNs {
		for _, v := range ns {
			if v == n {
				return i
			}
		}
	}
	t.Fatalf("sampled fib N %d belongs to no bucket", n)
	return -1
}

// TestGeneratorBucketFrequencies draws a large sample and checks each
// Fig. 9 bucket's empirical frequency against its published weight. With
// 200k draws the binomial standard error per bucket is < 0.12%, so a
// 1-point absolute tolerance catches any broken cumulative table while
// staying deterministic (fixed seed).
func TestGeneratorBucketFrequencies(t *testing.T) {
	const draws = 200_000
	g := NewGenerator(12345)
	counts := make([]int, len(DurationBucketWeights))
	for i := 0; i < draws; i++ {
		counts[fibBucketIndex(t, g.SampleFibN())]++
	}
	var total float64
	for _, w := range DurationBucketWeights {
		total += w
	}
	for i, w := range DurationBucketWeights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want %.4f +/- 0.01 (%d draws)", i, got, want, counts[i])
		}
	}
}

// TestCreationWorkMonotone is the contention model's core property: more
// concurrent creations in one container can never make an individual
// construction cheaper (the paper's Fig. 4 curve is non-decreasing).
// testing/quick drives random specs and concurrency pairs.
func TestCreationWorkMonotone(t *testing.T) {
	// Domain bounds keep BaseCost * k^exp inside int64 nanoseconds:
	// 1s * 512^2.9 < 1e17 ns. Beyond that time.Duration overflows and
	// the model is meaningless anyway.
	prop := func(baseMillis uint16, expTenths uint8, k1, k2 uint16) bool {
		spec := ClientSpec{
			BaseCost:    time.Duration(baseMillis%1000+1) * time.Millisecond,
			GILExponent: float64(expTenths%30) / 10, // [0, 3)
		}
		lo, hi := int(k1%512)+1, int(k2%512)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		return spec.CreationWork(lo) <= spec.CreationWork(hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCreationWorkClampsK: sub-1 concurrency behaves as k = 1.
func TestCreationWorkClampsK(t *testing.T) {
	spec := DefaultClient()
	if spec.CreationWork(0) != spec.CreationWork(1) || spec.CreationWork(-3) != spec.CreationWork(1) {
		t.Error("k < 1 must clamp to the un-contended cost")
	}
}

// TestInstanceMemMonotone: with a first-instance footprint at least as
// large as each duplicate's (the paper's Fig. 5 shape — SDK import side
// effects land on the first client), per-instance memory is
// non-increasing in the instance ordinal, and cumulative memory is
// non-decreasing regardless.
func TestInstanceMemMonotone(t *testing.T) {
	perInstance := func(firstMB, marginalMB uint8, i1, i2 uint16) bool {
		first := int64(firstMB)<<20 | 1 // avoid both-zero degenerate spec
		marginal := int64(marginalMB) << 20
		if marginal > first {
			first, marginal = marginal, first
		}
		spec := ClientSpec{FirstMem: first, MarginalMem: marginal}
		lo, hi := int(i1%64)+1, int(i2%64)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		return spec.InstanceMem(lo) >= spec.InstanceMem(hi)
	}
	if err := quick.Check(perInstance, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	cumulative := func(firstMB, marginalMB uint8, nRaw uint16) bool {
		spec := ClientSpec{FirstMem: int64(firstMB) << 20, MarginalMem: int64(marginalMB) << 20}
		n := int(nRaw%64) + 2
		var prev, sum int64
		for i := 1; i <= n; i++ {
			sum += spec.InstanceMem(i)
			if sum < prev {
				return false
			}
			prev = sum
		}
		return true
	}
	if err := quick.Check(cumulative, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDefaultClientShape pins the paper's calibration to the properties
// the quick tests rely on.
func TestDefaultClientShape(t *testing.T) {
	c := DefaultClient()
	if c.FirstMem < c.MarginalMem {
		t.Errorf("Fig. 5 shape violated: first %d < marginal %d", c.FirstMem, c.MarginalMem)
	}
	if c.GILExponent < 1 {
		t.Errorf("GIL exponent %v < 1: contention would be sub-linear", c.GILExponent)
	}
}
