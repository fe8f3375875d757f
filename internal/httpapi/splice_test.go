package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"faasbatch/internal/obs/obstest"
)

// spliceReference is what the router did before the splicer existed:
// decode the worker's line, wrap it, encode it again.
func spliceReference(line []byte, worker string, attempts int, trace uint64) ([]byte, uint64, error) {
	var inner InvokeResponse
	if err := json.Unmarshal(line, &inner); err != nil {
		return nil, 0, err
	}
	out := RoutedInvokeResponse{InvokeResponse: inner, Worker: worker, ForwardAttempts: attempts}
	if inner.Worker != "" {
		out.Worker = inner.Worker
	}
	if out.TraceID == "" && trace != 0 {
		out.TraceID = fmt.Sprintf("%016x", trace)
	}
	id, _ := strconv.ParseUint(out.TraceID, 16, 64)
	return AppendRoutedInvokeResponse(nil, &out), id, nil
}

// spliceGolden pins the routed line for the worker replies the issue
// names: with and without worker and traceId, a null result, strings
// that need escaping, and a reply that is not canonical at all. fast
// records whether the byte path is expected to take the line; the output
// is the same either way.
var spliceGolden = []struct {
	name, line, want string
	trace            uint64
	fast             bool
}{
	{
		name:  "canonical, worker names itself, router trace adopted",
		line:  `{"fn":"fib","result":{"n":30},"containerId":"live-0001-fib","worker":"w9","cold":false,"attempts":1,"latency":{"schedMillis":0.002,"coldMillis":0,"queueMillis":0.001,"execMillis":12.5,"totalMillis":12.503}}` + "\n",
		trace: 0xdeadbeef,
		want:  `{"fn":"fib","result":{"n":30},"containerId":"live-0001-fib","cold":false,"attempts":1,"traceId":"00000000deadbeef","latency":{"schedMillis":0.002,"coldMillis":0,"queueMillis":0.001,"execMillis":12.5,"totalMillis":12.503},"worker":"w9","forwardAttempts":2}`,
		fast:  true,
	},
	{
		name: "no worker, no traceId, tracing off",
		line: `{"fn":"fib","result":[1,2],"containerId":"c","cold":true,"attempts":3,"latency":{"schedMillis":0,"coldMillis":101.25,"queueMillis":0,"execMillis":0,"totalMillis":101.25}}`,
		want: `{"fn":"fib","result":[1,2],"containerId":"c","cold":true,"attempts":3,"latency":{"schedMillis":0,"coldMillis":101.25,"queueMillis":0,"execMillis":0,"totalMillis":101.25},"worker":"w\u003c1\u003e","forwardAttempts":2}`,
		fast: true,
	},
	{
		name:  "the worker's traceId wins over the router's",
		line:  `{"fn":"fib","result":"x","containerId":"c","worker":"w9","cold":false,"attempts":1,"traceId":"00000000000000ab","latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0}}`,
		trace: 7,
		want:  `{"fn":"fib","result":"x","containerId":"c","cold":false,"attempts":1,"traceId":"00000000000000ab","latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0},"worker":"w9","forwardAttempts":2}`,
		fast:  true,
	},
	{
		name: "result null",
		line: `{"fn":"fib","result":null,"containerId":"c","cold":false,"attempts":1,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0}}`,
		want: `{"fn":"fib","result":null,"containerId":"c","cold":false,"attempts":1,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0},"worker":"w\u003c1\u003e","forwardAttempts":2}`,
		fast: true,
	},
	{
		name: "escaped strings re-encode through encoding/json",
		line: `{"fn":"a\"b\u003c","result":{"k":"<v>"},"containerId":"c\/d","worker":"w\u00e9","cold":false,"attempts":1,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0}}`,
		want: `{"fn":"a\"b\u003c","result":{"k":"<v>"},"containerId":"c/d","cold":false,"attempts":1,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0},"worker":"wé","forwardAttempts":2}`,
	},
	{
		name: "a foreign worker: spaces, reordered and unknown keys, exponent floats",
		line: `{ "attempts": 2, "fn": "fib", "extra": true, "latency": {"totalMillis": 1.50e1}, "result": {"n": 1} }`,
		want: `{"fn":"fib","result":{"n": 1},"containerId":"","cold":false,"attempts":2,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":15},"worker":"w\u003c1\u003e","forwardAttempts":2}`,
	},
}

func TestSpliceRoutedInvokeResponseGolden(t *testing.T) {
	for _, c := range spliceGolden {
		got, id, err := SpliceRoutedInvokeResponse(nil, []byte(c.line), "w<1>", 2, c.trace)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
		ref, refID, err := spliceReference([]byte(c.line), "w<1>", 2, c.trace)
		if err != nil || !bytes.Equal(got, ref) || id != refID {
			t.Errorf("%s: differs from decode + re-encode:\n got  %s (trace %x)\n want %s (trace %x, err %v)", c.name, got, id, ref, refID, err)
		}
		if _, _, ok := spliceCanonical(nil, []byte(c.line), "w<1>", 2, c.trace); ok != c.fast {
			t.Errorf("%s: byte path taken = %v, want %v", c.name, ok, c.fast)
		}
	}
}

// TestSpliceTakesTheGatewaysOwnLines: the line the gateway writes for a
// printable-ASCII reply is on the byte path — the path a fleet of our own
// gateways is on — with the trace stamp on or off, and splicing it into a
// buffer with room allocates nothing.
func TestSpliceTakesTheGatewaysOwnLines(t *testing.T) {
	r := sampleResponses()[1]
	for _, trace := range []uint64{0, 0xabcdef0123456789} {
		line := append(AppendInvokeResponse(nil, &r, trace), '\n')
		if _, _, ok := spliceCanonical(nil, line, "w1", 1, 0); !ok {
			t.Errorf("byte path declined the gateway's own line %s", line)
		}
	}
	if obstest.RaceEnabled {
		return // json.Valid's pooled scanner allocates under the race detector
	}
	line := []byte(`{"fn":"fib","result":{"n":30},"containerId":"live-0001-fib","worker":"w1","cold":false,"attempts":1,"latency":{"schedMillis":0.002,"coldMillis":0,"queueMillis":0.001,"execMillis":0.004,"totalMillis":0.007}}` + "\n")
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, _, err = SpliceRoutedInvokeResponse(buf[:0], line, "w1", 1, 0xabc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("splice into a reused buffer allocates %.1f objects/op, want 0", n)
	}
}

func TestSpliceRejectsWhatJSONRejects(t *testing.T) {
	dst := []byte("kept")
	for _, line := range []string{``, `nope`, `{"fn":"x"`, `{"fn":"x","attempts":1.5}`, `{"fn":"x","result":{]}`} {
		out, _, err := SpliceRoutedInvokeResponse(dst, []byte(line), "w1", 1, 0)
		if err == nil || string(out) != "kept" {
			t.Errorf("line %q: out %q, err %v; want an error and dst unextended", line, out, err)
		}
	}
}

// FuzzSpliceRoutedResponse: for every input the splicer answers what
// decode + re-encode answers — same verdict, same bytes, same trace — so
// whichever lines the byte path takes, it takes them correctly.
func FuzzSpliceRoutedResponse(f *testing.F) {
	for _, c := range spliceGolden {
		f.Add([]byte(c.line), "w1", 1, c.trace)
	}
	for i, r := range sampleResponses() {
		f.Add(AppendInvokeResponse(nil, &r, 0), "w<&>", i, uint64(i))
	}
	f.Add([]byte(`{"fn":"f","result":0,"containerId":"c","cold":false,"attempts":-0,"latency":{"schedMillis":0.10,"coldMillis":1e-7,"queueMillis":0.0000001,"execMillis":123456789012345678,"totalMillis":-0}}`), "w", 1, uint64(0))
	f.Fuzz(func(t *testing.T, line []byte, worker string, attempts int, trace uint64) {
		want, wantID, wantErr := spliceReference(line, worker, attempts, trace)
		got, gotID, gotErr := SpliceRoutedInvokeResponse(nil, line, worker, attempts, trace)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdict differs on %q: %v vs %v", line, gotErr, wantErr)
		}
		if gotErr == nil && (!bytes.Equal(got, want) || gotID != wantID) {
			t.Fatalf("line %q:\n got  %s (trace %x)\n want %s (trace %x)", line, got, gotID, want, wantID)
		}
	})
}

func BenchmarkSpliceRoutedInvokeResponse(b *testing.B) {
	line := []byte(`{"fn":"fib","result":{"n":30,"v":832040},"containerId":"live-0001-fib","worker":"w-1","cold":false,"attempts":1,"latency":{"schedMillis":0.112,"coldMillis":0,"queueMillis":0.001,"execMillis":4.25,"totalMillis":4.363}}` + "\n")
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = SpliceRoutedInvokeResponse(buf[:0], line, "w1", 1, 0)
	}
	_ = buf
}

// TestSkipVerbatimFloatOnlyTakesRoundTrips: every decimal the byte path
// would copy is one appendJSONFloat prints back unchanged — over seeded
// random digit strings that sit on both sides of each rule (leading and
// trailing zeros, the 15-digit limit, the 1e-6 exponent threshold).
func TestSkipVerbatimFloatOnlyTakesRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10)*rng.Intn(2)) // half zeros
		}
		return string(b)
	}
	taken := 0
	for i := 0; i < 200_000; i++ {
		s := digits(1 + rng.Intn(17))
		if rng.Intn(4) > 0 {
			s += "." + digits(rng.Intn(18))
		}
		end := skipVerbatimFloat([]byte(s+","), 0)
		if end != len(s) {
			continue
		}
		taken++
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("took %q, which does not parse: %v", s, err)
		}
		if got := string(appendJSONFloat(nil, v)); got != s {
			t.Fatalf("took %q, which prints back as %q", s, got)
		}
	}
	if taken < 1000 {
		t.Fatalf("only %d of the generated decimals were taken: the generator misses the accepted set", taken)
	}
}
