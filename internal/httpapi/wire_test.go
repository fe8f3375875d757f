package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// sampleResponses covers the encoder's branch space: escaping (control
// characters, HTML-unsafe bytes, U+2028/U+2029, invalid UTF-8, unicode),
// float formatting corners, empty/set optional fields, nil results.
func sampleResponses() []InvokeResponse {
	return []InvokeResponse{
		{},
		{Fn: "fib", Result: json.RawMessage(`{"n":30}`), ContainerID: "live-0001-fib", Cold: true, Attempts: 1,
			Latency: Latency{SchedMillis: 0.003, ColdMillis: 101.25, QueueMillis: 0, ExecMillis: 12.5, TotalMillis: 113.753}},
		{Fn: `we"ird\fn` + "\n\t\x01", Result: json.RawMessage(`[1,2,3]`), ContainerID: "<id>&stuff", Worker: "w-1", Attempts: 3,
			Latency: Latency{SchedMillis: 1e-7, ColdMillis: 1e21, QueueMillis: 123456.789, ExecMillis: 0.000001, TotalMillis: 2.5e-9}},
		{Fn: "uni\u2028code\u2029ok\u00e9", Result: json.RawMessage(`"x"`), ContainerID: "c", Worker: "wörker", Attempts: 1,
			TraceID: "00000000deadbeef"},
		{Fn: "bad\xffutf8", Result: nil, ContainerID: "c", Attempts: 2,
			Latency: Latency{SchedMillis: 1234567.25}},
	}
}

func TestAppendInvokeResponseMatchesStdlib(t *testing.T) {
	for i, r := range sampleResponses() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got := AppendInvokeResponse(nil, &r, 0)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got  %s\n want %s", i, got, want)
		}
		// The gateway encodes into a reused buffer with the trace stamp
		// on; that path must stay allocation-free for every branch.
		buf := make([]byte, 0, 2*len(got)+32)
		if n := testing.AllocsPerRun(100, func() {
			buf = AppendInvokeResponse(buf[:0], &r, 0xabcdef0123456789)
		}); n != 0 {
			t.Errorf("case %d: encode into a reused buffer allocates %.1f objects/op, want 0", i, n)
		}
	}
}

func TestAppendInvokeResponseTraceOverride(t *testing.T) {
	r := InvokeResponse{Fn: "fib", Attempts: 1}
	got := AppendInvokeResponse(nil, &r, 0xdeadbeef)
	r.TraceID = fmt.Sprintf("%016x", uint64(0xdeadbeef))
	want, _ := json.Marshal(r)
	if !bytes.Equal(got, want) {
		t.Errorf("trace override:\n got  %s\n want %s", got, want)
	}
}

func TestAppendRoutedInvokeResponseMatchesStdlib(t *testing.T) {
	for i, inner := range sampleResponses() {
		r := RoutedInvokeResponse{InvokeResponse: inner, Worker: "w-7", ForwardAttempts: i + 1}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got := AppendRoutedInvokeResponse(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got  %s\n want %s", i, got, want)
		}
	}
}

func TestAppendInvokeRequestMatchesStdlib(t *testing.T) {
	cases := []InvokeRequest{
		{Fn: "fib"},
		{Fn: "fib", Payload: json.RawMessage(`{"n":30}`)},
		{Fn: "esc\"aped&<fn>", Payload: json.RawMessage(`[true,null]`)},
	}
	for i, req := range cases {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got := AppendInvokeRequest(nil, req.Fn, req.Payload)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got  %s\n want %s", i, got, want)
		}
	}
}

// TestAppendResultVerbatim pins the one deliberate divergence from
// encoding/json: raw results pass through byte-for-byte, neither
// compacted nor HTML-escaped.
func TestAppendResultVerbatim(t *testing.T) {
	raw := json.RawMessage("{\"a\": 1,\n  \"b\": \"<&>\"}")
	out := AppendInvokeResponse(nil, &InvokeResponse{Fn: "f", Result: raw}, 0)
	if !bytes.Contains(out, raw) {
		t.Fatalf("result not verbatim in %s", out)
	}
	var round struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !bytes.Equal(round.Result, raw) {
		t.Fatalf("round-tripped result %s != %s", round.Result, raw)
	}
}

// decodeInvokeRequestSlow is the reflection oracle: what DecodeInvokeRequest
// did before the fast path existed.
func decodeInvokeRequestSlow(body []byte) (InvokeRequest, error) {
	var req InvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return InvokeRequest{}, err
	}
	if req.Fn == "" {
		return InvokeRequest{}, fmt.Errorf("missing fn")
	}
	return req, nil
}

// decodeRoutedInvokeRequestSlow mirrors DecodeRoutedInvokeRequest's
// fallback path.
func decodeRoutedInvokeRequestSlow(body []byte) (RoutedInvokeRequest, error) {
	var req RoutedInvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return RoutedInvokeRequest{}, err
	}
	if req.Fn == "" {
		return RoutedInvokeRequest{}, fmt.Errorf("missing fn")
	}
	if req.TimeoutMillis < 0 {
		return RoutedInvokeRequest{}, fmt.Errorf("negative timeout")
	}
	return req, nil
}

var decodeConsistencyBodies = []string{
	`{"fn":"fib","payload":{"n":30}}`,
	`{"fn":"echo"}`,
	` { "fn" : "ws" , "payload" : [ 1 , 2 ] } `,
	`{"payload":{},"fn":"order"}`,
	`{"fn":"dup","fn":"dup2"}`,
	`{"fn":"esc\u0041"}`,
	`{"fn":""}`,
	`{"fn":"x","payload":"\ud800"}`,
	`{"fn":"x","payload":{"deep":[{"a":"}"},"]"]}}`,
	`{"fn":"x","payload":tru}`,
	`{"fn":"x","payload":12e5}`,
	`{"fn":"x","payload":1e+}`,
	`{"fn":"x","unknown":1}`,
	`{"fn":"x","timeoutMillis":2500}`,
	`{"fn":"x","timeoutMillis":-1}`,
	`{"fn":"x","timeoutMillis":2.5}`,
	`{"fn":"x","timeoutMillis":9e99}`,
	`{"fn":"x","timeoutMillis":null}`,
	`{"fn":"x"} trailing`,
	`{"fn":"x",}`,
	`{}`,
	`null`,
	`[]`,
	``,
}

func TestDecodeInvokeRequestFastMatchesSlow(t *testing.T) {
	for _, body := range decodeConsistencyBodies {
		got, gotErr := DecodeInvokeRequest([]byte(body))
		want, wantErr := decodeInvokeRequestSlow([]byte(body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("body %q: err mismatch: got %v, want %v", body, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if got.Fn != want.Fn || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("body %q: got %+v, want %+v", body, got, want)
		}
	}
}

func TestDecodeRoutedInvokeRequestFastMatchesSlow(t *testing.T) {
	for _, body := range decodeConsistencyBodies {
		got, gotErr := DecodeRoutedInvokeRequest([]byte(body))
		want, wantErr := decodeRoutedInvokeRequestSlow([]byte(body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("body %q: err mismatch: got %v, want %v", body, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if got.Fn != want.Fn || got.TimeoutMillis != want.TimeoutMillis || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("body %q: got %+v, want %+v", body, got, want)
		}
	}
}

// FuzzDecodeConsistency proves the fast scanner never changes the decode
// verdict or result relative to the reflection path, for both decoders.
func FuzzDecodeConsistency(f *testing.F) {
	for _, body := range decodeConsistencyBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := DecodeInvokeRequest(body)
		want, wantErr := decodeInvokeRequestSlow(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("invoke err mismatch on %q: %v vs %v", body, gotErr, wantErr)
		}
		if gotErr == nil && (got.Fn != want.Fn || !bytes.Equal(got.Payload, want.Payload)) {
			t.Fatalf("invoke decode mismatch on %q: %+v vs %+v", body, got, want)
		}
		rgot, rgotErr := DecodeRoutedInvokeRequest(body)
		rwant, rwantErr := decodeRoutedInvokeRequestSlow(body)
		if (rgotErr == nil) != (rwantErr == nil) {
			t.Fatalf("routed err mismatch on %q: %v vs %v", body, rgotErr, rwantErr)
		}
		if rgotErr == nil && (rgot.Fn != rwant.Fn || rgot.TimeoutMillis != rwant.TimeoutMillis || !bytes.Equal(rgot.Payload, rwant.Payload)) {
			t.Fatalf("routed decode mismatch on %q: %+v vs %+v", body, rgot, rwant)
		}
	})
}

// FuzzAppendInvokeResponseEquality cross-checks the byte encoder against
// json.Marshal on arbitrary field values (Result kept nil: raw values
// are deliberately not re-encoded, see TestAppendResultVerbatim).
func FuzzAppendInvokeResponseEquality(f *testing.F) {
	f.Add("fib", "c-1", "w", true, 3, "00ff00ff00ff00ff", 0.25, 1e-9)
	f.Add("", "", "", false, 0, "", 0.0, 1e22)
	f.Add("a\u2028b\xff<&>", "c\"d\\e", "w\n", true, -5, "t", -3.5, 123.456)
	f.Fuzz(func(t *testing.T, fn, cid, worker string, cold bool, attempts int, traceID string, f1, f2 float64) {
		r := InvokeResponse{Fn: fn, ContainerID: cid, Worker: worker, Cold: cold,
			Attempts: attempts, TraceID: traceID,
			Latency: Latency{SchedMillis: f1, ColdMillis: f2, TotalMillis: f1 + f2}}
		want, err := json.Marshal(r)
		if err != nil {
			return // non-finite floats etc.: encoder degrades, stdlib refuses
		}
		got := AppendInvokeResponse(nil, &r, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("mismatch:\n got  %s\n want %s", got, want)
		}
	})
}

func BenchmarkAppendInvokeResponse(b *testing.B) {
	r := InvokeResponse{Fn: "fib", Result: json.RawMessage(`{"n":30,"v":832040}`),
		ContainerID: "live-0001-fib", Worker: "w-1", Cold: false, Attempts: 1,
		Latency: Latency{SchedMillis: 0.112, ExecMillis: 4.25, TotalMillis: 4.362}}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendInvokeResponse(buf[:0], &r, 0xdeadbeef)
	}
	_ = buf
}

func BenchmarkAppendInvokeRequest(b *testing.B) {
	payload := []byte(`{"n":30}`)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendInvokeRequest(buf[:0], "fib", payload)
	}
	_ = buf
}

func BenchmarkParseInvokeWire(b *testing.B) {
	body := []byte(`{"fn":"fib","payload":{"n":30}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := parseInvokeWire(body); !ok {
			b.Fatal("fast path bailed")
		}
	}
}

func BenchmarkDecodeInvokeRequest(b *testing.B) {
	body := []byte(`{"fn":"fib","payload":{"n":30}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInvokeRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
