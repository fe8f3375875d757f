package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if CPUIntensive.String() != "cpu" || IO.String() != "io" {
		t.Fatalf("Kind strings wrong: %v %v", CPUIntensive, IO)
	}
	if got := Kind(9).String(); got != "kind(9)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestFibDurationRange(t *testing.T) {
	if _, err := FibDuration(19); err == nil {
		t.Error("FibDuration(19) succeeded, want error")
	}
	if _, err := FibDuration(36); err == nil {
		t.Error("FibDuration(36) succeeded, want error")
	}
	d20, err := FibDuration(20)
	if err != nil {
		t.Fatalf("FibDuration(20): %v", err)
	}
	if d20 != 2500*time.Microsecond {
		t.Errorf("FibDuration(20) = %v, want 2.5ms", d20)
	}
}

func TestFibDurationPaperConstraints(t *testing.T) {
	// The paper: fib with N in [20, 26] completes in under 45 ms.
	for n := 20; n <= 26; n++ {
		d, err := FibDuration(n)
		if err != nil {
			t.Fatalf("FibDuration(%d): %v", n, err)
		}
		if d >= 45*time.Millisecond {
			t.Errorf("FibDuration(%d) = %v, want < 45ms", n, d)
		}
	}
}

func TestFibDurationMonotone(t *testing.T) {
	prev := time.Duration(0)
	for n := MinFibN; n <= MaxFibN; n++ {
		d, err := FibDuration(n)
		if err != nil {
			t.Fatalf("FibDuration(%d): %v", n, err)
		}
		if d <= prev {
			t.Fatalf("FibDuration(%d) = %v not > FibDuration(%d) = %v", n, d, n-1, prev)
		}
		prev = d
	}
}

func TestBucketFibNsMatchModel(t *testing.T) {
	// Every N assigned to a bucket must have a modelled duration inside
	// that bucket's bounds.
	for i := range DurationBucketBounds {
		lo := DurationBucketBounds[i]
		hi := time.Duration(math.MaxInt64)
		if i+1 < len(DurationBucketBounds) {
			hi = DurationBucketBounds[i+1]
		}
		for _, n := range bucketFibNs[i] {
			d, err := FibDuration(n)
			if err != nil {
				t.Fatalf("FibDuration(%d): %v", n, err)
			}
			if d < lo || d >= hi {
				t.Errorf("fib(%d) = %v outside bucket %d [%v, %v)", n, d, i, lo, hi)
			}
		}
	}
}

func TestEveryFibNHasABucket(t *testing.T) {
	seen := map[int]bool{}
	for i := range DurationBucketBounds {
		for _, n := range bucketFibNs[i] {
			if seen[n] {
				t.Errorf("fib N %d assigned to two buckets", n)
			}
			seen[n] = true
		}
	}
	for n := MinFibN; n <= MaxFibN; n++ {
		if !seen[n] {
			t.Errorf("fib N %d not in any bucket", n)
		}
	}
}

func TestFibSpec(t *testing.T) {
	s, err := FibSpec(30)
	if err != nil {
		t.Fatalf("FibSpec(30): %v", err)
	}
	if s.Name != "fib30" || s.Kind != CPUIntensive || s.Client != nil {
		t.Fatalf("FibSpec(30) = %+v", s)
	}
	want, err := FibDuration(30)
	if err != nil {
		t.Fatalf("FibDuration(30): %v", err)
	}
	if s.Work != want {
		t.Fatalf("FibSpec(30).Work = %v, want %v", s.Work, want)
	}
	if _, err := FibSpec(5); err == nil {
		t.Fatal("FibSpec(5) succeeded, want error")
	}
}

func TestIOSpec(t *testing.T) {
	s := IOSpec("s3func")
	if s.Name != "s3func" || s.Kind != IO {
		t.Fatalf("IOSpec = %+v", s)
	}
	if s.Client == nil {
		t.Fatal("IOSpec has no client")
	}
	if s.Client.BaseCost != DefaultClientBaseCost {
		t.Fatalf("client base cost = %v", s.Client.BaseCost)
	}
}

func TestClientCreationWorkCalibration(t *testing.T) {
	c := DefaultClient()
	// k=1: exactly the base cost.
	if got := c.CreationWork(1); got != DefaultClientBaseCost {
		t.Fatalf("CreationWork(1) = %v, want %v", got, DefaultClientBaseCost)
	}
	// Negative/zero concurrency clamps to 1.
	if got := c.CreationWork(0); got != DefaultClientBaseCost {
		t.Fatalf("CreationWork(0) = %v, want %v", got, DefaultClientBaseCost)
	}
	// Fig. 4 calibration: a burst of 9 creations serialises on the GIL,
	// the i-th costing CreationWork(i); total elapsed must land near
	// 3165 ms (within ~15%).
	elapsed := 0.0
	for k := 1; k <= 9; k++ {
		elapsed += c.CreationWork(k).Seconds()
	}
	if elapsed < 2.7 || elapsed > 3.7 {
		t.Fatalf("modelled elapsed for a 9-burst = %.2fs, want ~3.165s", elapsed)
	}
}

func TestClientCreationWorkMonotone(t *testing.T) {
	c := DefaultClient()
	prev := time.Duration(0)
	for k := 1; k <= 10; k++ {
		w := c.CreationWork(k)
		if w <= prev {
			t.Fatalf("CreationWork(%d) = %v not increasing", k, w)
		}
		prev = w
	}
}

func TestClientInstanceMemCalibration(t *testing.T) {
	c := DefaultClient()
	if got := c.InstanceMem(1); got != DefaultClientFirstMem {
		t.Fatalf("InstanceMem(1) = %d, want %d", got, int64(DefaultClientFirstMem))
	}
	// Fig. 5: memory grows from 9 MB (k=1) to ~60 MB (k=9).
	total := int64(0)
	for i := 1; i <= 9; i++ {
		total += c.InstanceMem(i)
	}
	gotMB := float64(total) / (1 << 20)
	if gotMB < 55 || gotMB > 65 {
		t.Fatalf("9 concurrent clients use %.1f MB, want ~60 MB", gotMB)
	}
}

func TestGeneratorDistributionMatchesFig9(t *testing.T) {
	g := NewGenerator(42)
	const n = 200_000
	counts := make([]int, len(DurationBucketWeights))
	for i := 0; i < n; i++ {
		fibN := g.SampleFibN()
		d, err := FibDuration(fibN)
		if err != nil {
			t.Fatalf("sampled invalid N %d: %v", fibN, err)
		}
		for b := len(DurationBucketBounds) - 1; b >= 0; b-- {
			if d >= DurationBucketBounds[b] {
				counts[b]++
				break
			}
		}
	}
	for b, w := range DurationBucketWeights {
		got := float64(counts[b]) / n
		if math.Abs(got-w/1.0001) > 0.01 {
			t.Errorf("bucket %d frequency = %.4f, want ~%.4f", b, got, w)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 1000; i++ {
		if x, y := a.SampleFibN(), b.SampleFibN(); x != y {
			t.Fatalf("generators diverged at %d: %d vs %d", i, x, y)
		}
	}
}

// Property: every sampled N is in the calibrated range.
func TestPropertySampleInRange(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGenerator(seed)
		for i := 0; i < 100; i++ {
			n := g.SampleFibN()
			if n < MinFibN || n > MaxFibN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFib(t *testing.T) {
	want := []int{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, w := range want {
		if got := Fib(n); got != w {
			t.Errorf("Fib(%d) = %d, want %d", n, got, w)
		}
	}
}
