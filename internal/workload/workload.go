// Package workload defines the benchmark functions of the evaluation: the
// CPU-intensive Fibonacci family whose execution times reproduce the
// paper's Fig. 9 duration distribution, and the I/O function that creates
// cloud-storage clients (Listing 1), whose creation cost and memory
// footprint are calibrated to Figs. 4, 5 and 14(d).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Kind distinguishes the two workload families of the evaluation.
type Kind int

// Workload kinds.
const (
	// CPUIntensive is the fib(N) family (§IV, Fig. 9).
	CPUIntensive Kind = iota + 1
	// IO is the S3-client-creating function family (§II-B, Listing 1).
	IO
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPUIntensive:
		return "cpu"
	case IO:
		return "io"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ClientSpec describes the cloud-storage client a function creates, i.e.
// the redundant resource the Resource Multiplexer deduplicates.
//
// Creation cost model (calibrated to Fig. 4): client construction is CPU
// work executed under a runtime lock (the Python GIL in the paper's
// prototype), so concurrent creations inside one container serialise on
// one core. On top of serialisation, allocator and lock contention add a
// superlinear penalty: a construction starting while k creations are in
// flight costs BaseCost * k^GILExponent of CPU work, so a burst of nine
// simultaneous creations takes BaseCost * sum_{k=1..9} k^GILExponent
// ~= 66 ms * 48 ~= 3.2 s end to end, matching the paper's ~48x blow-up.
type ClientSpec struct {
	// Callee is the creation call being intercepted, e.g. "boto3.client".
	Callee string
	// ArgsKey stands in for the hashed creation arguments (access key,
	// bucket, region ...). Invocations with equal Callee+ArgsKey can share
	// one instance.
	ArgsKey string
	// BaseCost is the un-contended CPU cost of one construction.
	BaseCost time.Duration
	// GILExponent is the extra contention exponent beyond serialisation.
	GILExponent float64
	// FirstMem is the memory footprint of the first client instance in a
	// container (SDK import side effects included).
	FirstMem int64
	// MarginalMem is the footprint of each additional duplicate instance.
	MarginalMem int64
}

// CreationWork reports the CPU work of one construction when k creations
// run concurrently inside the same container (k >= 1).
func (c ClientSpec) CreationWork(k int) time.Duration {
	if k < 1 {
		k = 1
	}
	return time.Duration(float64(c.BaseCost) * math.Pow(float64(k), c.GILExponent))
}

// InstanceMem reports the memory cost of the i-th live instance in a
// container (i is 1-based).
func (c ClientSpec) InstanceMem(i int) int64 {
	if i <= 1 {
		return c.FirstMem
	}
	return c.MarginalMem
}

// Spec describes one serverless function.
type Spec struct {
	// Name is the function identity used for grouping (λA, λB, ...).
	Name string
	// Kind is the workload family.
	Kind Kind
	// Work is the CPU work of the function body (for IO functions, the
	// small compute after the storage access).
	Work time.Duration
	// IOWait is time spent blocked on storage/network (no CPU).
	IOWait time.Duration
	// Client is the storage client the function creates (nil for pure
	// CPU functions).
	Client *ClientSpec
}

// Default client-creation calibration (Figs. 4, 5, 14d).
const (
	// DefaultClientBaseCost is the un-contended S3 client construction
	// time (Fig. 4, concurrency 1).
	DefaultClientBaseCost = 66 * time.Millisecond
	// DefaultGILExponent calibrates Fig. 4: when a burst of 9 creations
	// enters one container, the i-th to start observes i in-flight
	// creations and costs BaseCost * i^alpha of serialised CPU work, so
	// the batch completes after BaseCost * sum(i^alpha) ~= 66 ms * 48
	// ~= 3.2 s, matching the paper's ~48x blow-up at concurrency 9.
	DefaultGILExponent = 1.05
	// DefaultClientFirstMem is the first client's footprint (Fig. 5,
	// concurrency 1: 9 MB).
	DefaultClientFirstMem = 9 << 20
	// DefaultClientMarginalMem is each duplicate's footprint (Fig. 5:
	// 9 MB -> 60 MB across 1 -> 9 concurrent clients).
	DefaultClientMarginalMem = 6_400 << 10
)

// DefaultClient returns the paper-calibrated S3 client spec.
func DefaultClient() ClientSpec {
	return ClientSpec{
		Callee:      "boto3.client",
		ArgsKey:     "s3:ACCESS_KEY:SECRET_KEY",
		BaseCost:    DefaultClientBaseCost,
		GILExponent: DefaultGILExponent,
		FirstMem:    DefaultClientFirstMem,
		MarginalMem: DefaultClientMarginalMem,
	}
}

// FibN bounds of the calibrated model.
const (
	MinFibN = 20
	MaxFibN = 35
)

// fibBase and fibGrowth define the fib(N) execution-time model
// d(N) = fibBase * fibGrowth^(N-MinFibN). Recursive Fibonacci cost grows
// by the golden ratio per increment of N; the base is picked so that
// N in [20, 26] stays under 45 ms as the paper reports.
const (
	fibBase   = 2500 * time.Microsecond
	fibGrowth = 1.61803398875
)

// FibDuration reports the modelled execution time of fib(n) on an idle
// core. It returns an error if n is outside [MinFibN, MaxFibN].
func FibDuration(n int) (time.Duration, error) {
	if n < MinFibN || n > MaxFibN {
		return 0, fmt.Errorf("workload: fib N must be in [%d, %d], got %d", MinFibN, MaxFibN, n)
	}
	return time.Duration(float64(fibBase) * math.Pow(fibGrowth, float64(n-MinFibN))), nil
}

// FibSpec builds the CPU-intensive function spec for fib(n).
// It returns an error if n is out of the calibrated range.
func FibSpec(n int) (Spec, error) {
	d, err := FibDuration(n)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Name: fmt.Sprintf("fib%d", n),
		Kind: CPUIntensive,
		Work: d,
	}, nil
}

// IOSpec builds the I/O function spec of §IV: create an S3 client, touch
// blob storage, do a little compute. All invocations share the function
// name (one function type, as in the paper's I/O experiment) unless the
// caller renames it.
func IOSpec(name string) Spec {
	client := DefaultClient()
	return Spec{
		Name:   name,
		Kind:   IO,
		Work:   2 * time.Millisecond,
		IOWait: 15 * time.Millisecond,
		Client: &client,
	}
}

// DurationBucketBounds are the Fig. 9 histogram bucket lower bounds.
var DurationBucketBounds = []time.Duration{
	0,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	400 * time.Millisecond,
	1550 * time.Millisecond,
}

// DurationBucketWeights are the Fig. 9 per-bucket probabilities.
var DurationBucketWeights = []float64{0.5513, 0.0696, 0.0561, 0.1108, 0.1109, 0.1014}

// bucketFibNs lists which fib N values land in each Fig. 9 bucket under
// the FibDuration model.
var bucketFibNs = [][]int{
	{20, 21, 22, 23, 24, 25, 26}, // [0, 50 ms): all under 45 ms
	{27},                         // [50, 100 ms)
	{28, 29},                     // [100, 200 ms)
	{30},                         // [200, 400 ms)
	{31, 32, 33},                 // [400, 1550 ms)
	{34, 35},                     // [1550 ms, inf)
}

// Generator samples fib N values following the Fig. 9 duration
// distribution.
type Generator struct {
	rng *rand.Rand
	cum []float64
}

// NewGenerator creates a deterministic generator for the given seed.
func NewGenerator(seed int64) *Generator {
	cum := make([]float64, len(DurationBucketWeights))
	sum := 0.0
	for i, w := range DurationBucketWeights {
		sum += w
		cum[i] = sum
	}
	// Normalise: the published percentages sum to 1.0001 due to rounding.
	for i := range cum {
		cum[i] /= sum
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

// SampleFibN draws a fib N value: a Fig. 9 bucket by weight, then a
// uniform N within the bucket.
func (g *Generator) SampleFibN() int {
	u := g.rng.Float64()
	bucket := len(g.cum) - 1
	for i, c := range g.cum {
		if u < c {
			bucket = i
			break
		}
	}
	ns := bucketFibNs[bucket]
	return ns[g.rng.Intn(len(ns))]
}

// Fib computes the n-th Fibonacci number with naive recursion. The live
// platform (internal/platform) uses it to burn real CPU exactly like the
// paper's benchmark function.
func Fib(n int) int {
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}
