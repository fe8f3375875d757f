package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs/obstest"
	"faasbatch/internal/platform"
)

// countedWorker is a net/http server that counts the connections opened
// to it.
type countedWorker struct {
	srv   *httptest.Server
	conns atomic.Int64
}

func newCountedWorker(t *testing.T, h http.Handler) *countedWorker {
	t.Helper()
	cw := &countedWorker{srv: httptest.NewUnstartedServer(h)}
	cw.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			cw.conns.Add(1)
		}
	}
	cw.srv.Start()
	t.Cleanup(cw.srv.Close)
	return cw
}

// echoInvoke answers /invoke like a gateway: the payload comes back as the
// result, in the canonical line.
func echoInvoke(worker string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := httpapi.DecodeInvokeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := httpapi.InvokeResponse{Fn: req.Fn, Result: req.Payload, Worker: worker, Attempts: 1}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(httpapi.AppendInvokeResponse(nil, &out, 0), '\n'))
	}
}

// wireRouter is a router over the given base URLs (w1, w2, ...) with no
// backoff and the given forward timeout.
func wireRouter(t *testing.T, forwardTimeout time.Duration, mut func(*Config), urls ...string) *Router {
	t.Helper()
	cfg := Config{RetryBackoff: -1, ForwardTimeout: forwardTimeout, ProbeTimeout: time.Second}
	for i, u := range urls {
		cfg.Workers = append(cfg.Workers, WorkerSpec{ID: fmt.Sprintf("w%d", i+1), URL: u})
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

func (e *endpoint) idleCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle)
}

// TestWireFramings reads one reply of every framing a worker (or whatever
// answers at its address) can send, from a real net/http server, and
// checks which of them leave the connection fit to pool.
func TestWireFramings(t *testing.T) {
	big := strings.Repeat("metric_line 1\n", 20_000) // 280 kB: net/http chunks it
	raw := func(reply string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			c, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			_, _ = io.WriteString(c, reply)
			_ = c.Close()
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/base/length", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "sized") })
	mux.HandleFunc("/base/chunked", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Sum")
		_, _ = io.WriteString(w, big)
		w.Header().Set("X-Sum", "1")
	})
	mux.HandleFunc("/base/empty", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	mux.HandleFunc("/base/closing", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		_, _ = io.WriteString(w, "bye")
	})
	mux.HandleFunc("/base/until-close", raw("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nto the end"))
	mux.HandleFunc("/base/http10", raw("HTTP/1.0 200 OK\r\ncontent-length:  3 \r\n\r\nold"))
	mux.HandleFunc("/base/garbage", raw("SSH-2.0-OpenSSH_9.6\r\n"))
	cw := newCountedWorker(t, mux)
	// The base URL carries a path prefix: every request goes under it.
	rt := wireRouter(t, time.Second, nil, cw.srv.URL+"/base")
	ep := rt.wire.endpoints["w1"]

	cases := []struct {
		path   string
		status int
		body   string
		pooled bool
		fail   error
	}{
		{path: "/length", status: 200, body: "sized", pooled: true},
		{path: "/chunked", status: 200, body: big, pooled: true},
		{path: "/length", status: 200, body: "sized", pooled: true}, // after a chunked reply and its trailer
		{path: "/empty", status: 204, pooled: true},
		{path: "/nowhere", status: 404, body: "404 page not found\n", pooled: true},
		{path: "/closing", status: 200, body: "bye"},
		{path: "/until-close", status: 200, body: "to the end"},
		{path: "/http10", status: 200, body: "old"},
		{path: "/garbage", fail: errMalformedReply},
	}
	for _, c := range cases {
		wc, status, err := ep.get(context.Background(), time.Now().Add(time.Second), c.path)
		if c.fail != nil {
			if !errors.Is(err, c.fail) {
				t.Errorf("GET %s: err = %v, want %v", c.path, err, c.fail)
			}
			continue
		}
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		if status != c.status || string(wc.rbuf) != c.body {
			t.Errorf("GET %s = %d with %d body bytes %.40q, want %d %.40q", c.path, status, len(wc.rbuf), wc.rbuf, c.status, c.body)
		}
		ep.put(wc)
		if got := ep.idleCount() == 1; got != c.pooled {
			t.Errorf("GET %s: connection pooled = %v, want %v", c.path, got, c.pooled)
		}
	}
	// The oversize reply buffer of the scrape did not stay with the
	// connection.
	if wc, _, err := ep.get(context.Background(), time.Now().Add(time.Second), "/length"); err != nil {
		t.Fatal(err)
	} else if cap(wc.rbuf) > wireKeepBuf {
		t.Errorf("a pooled connection kept a %d-byte reply buffer", cap(wc.rbuf))
	}
}

// TestWireSequentialForwardsShareOneConnection: the pool's reason to be.
func TestWireSequentialForwardsShareOneConnection(t *testing.T) {
	cw := newCountedWorker(t, echoInvoke("w1"))
	rt := wireRouter(t, time.Second, nil, cw.srv.URL)
	for i := 0; i < 50; i++ {
		payload := fmt.Sprintf(`{"i":%d}`, i)
		res, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: "echo", Payload: json.RawMessage(payload)})
		if err != nil || string(res.Result) != payload || res.Worker != "w1" || res.ForwardAttempts != 1 {
			t.Fatalf("forward %d: %+v, %v", i, res, err)
		}
	}
	if n := cw.conns.Load(); n != 1 {
		t.Fatalf("50 sequential forwards opened %d connections, want 1", n)
	}
}

// TestWireConcurrentForwardsKeepTheirConnections: eight forwards in
// flight to one worker open eight connections, and all eight are kept, so
// a second wave opens none. (http.Transport's default of two idle
// connections per host made the parent commit's router open six more on
// every such wave, closing six after it.)
func TestWireConcurrentForwardsKeepTheirConnections(t *testing.T) {
	const width = 8
	var arrived sync.WaitGroup
	echo := echoInvoke("w1")
	cw := newCountedWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		arrived.Wait() // every forward of the wave is in flight at once
		echo(w, r)
	}))
	rt := wireRouter(t, 5*time.Second, nil, cw.srv.URL)
	for wave := 1; wave <= 2; wave++ {
		arrived.Add(width)
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rt.Invoke(context.Background(), routedReq("echo")); err != nil {
					t.Errorf("wave %d: %v", wave, err)
				}
			}()
		}
		wg.Wait()
		if n := cw.conns.Load(); n != width {
			t.Fatalf("after wave %d the worker has seen %d connections, want %d", wave, n, width)
		}
	}
	if st := rt.Stats(); st.Completed != 2*width || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWireStaleConnectionIsRedialled: the worker closes its idle
// connections between two forwards (an idle timeout, a restart). The
// second forward finds its pooled connection dead, redials and succeeds
// inside the same attempt: no retry, no step toward mark-down.
func TestWireStaleConnectionIsRedialled(t *testing.T) {
	cw := newCountedWorker(t, echoInvoke("w1"))
	rt := wireRouter(t, time.Second, func(cfg *Config) { cfg.MarkDownAfter = 1 }, cw.srv.URL)
	for i := 0; i < 3; i++ {
		res, err := rt.Invoke(context.Background(), routedReq("echo"))
		if err != nil || res.ForwardAttempts != 1 {
			t.Fatalf("forward %d: %+v, %v", i, res, err)
		}
		cw.srv.CloseClientConnections()
	}
	if st := rt.Stats(); st.Retries != 0 || st.Completed != 3 || st.Forwarded != 3 {
		t.Fatalf("stats = %+v, want 3 completed with no retries", st)
	}
	if rt.Registry().State("w1") != WorkerUp {
		t.Fatal("a stale pooled connection counted against the worker")
	}
	if n := cw.conns.Load(); n != 3 {
		t.Fatalf("the worker saw %d connections, want 3 (one redial per closed one)", n)
	}
	if row := rt.Registry().Snapshot()[0]; row.Failures != 0 || row.Inflight != 0 {
		t.Fatalf("worker row = %+v", row)
	}
}

// TestWireCallerCancels: the worker's handler blocks and the caller gives
// up. Invoke returns at once with the caller's error, the worker sees its
// request context end (the connection was closed under it), and the
// connection is not pooled.
func TestWireCallerCancels(t *testing.T) {
	entered, sawDone := make(chan struct{}), make(chan struct{})
	echo := echoInvoke("w1")
	cw := newCountedWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !bytes.Contains(body, []byte("block")) {
			r.Body = io.NopCloser(bytes.NewReader(body))
			echo(w, r)
			return
		}
		close(entered)
		<-r.Context().Done()
		close(sawDone)
	}))
	rt := wireRouter(t, 30*time.Second, nil, cw.srv.URL)
	if _, err := rt.Invoke(context.Background(), routedReq("echo")); err != nil {
		t.Fatal(err) // one connection is pooled now
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(ctx, httpapi.RoutedInvokeRequest{Fn: "block"})
		errc <- err
	}()
	<-entered
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if took := time.Since(canceledAt); took > 50*time.Millisecond {
			t.Fatalf("Invoke returned %v after the cancel, want within 50ms", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invoke still blocked 5s after its caller cancelled")
	}
	select {
	case <-sawDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never saw its request context end")
	}
	if n := rt.wire.endpoints["w1"].idleCount(); n != 0 {
		t.Fatalf("%d idle connections after a cancelled exchange, want 0", n)
	}
	if _, err := rt.Invoke(context.Background(), routedReq("echo")); err != nil {
		t.Fatal(err)
	}
	if n := cw.conns.Load(); n != 2 {
		t.Fatalf("the worker saw %d connections, want 2: the cancelled one must not be reused", n)
	}
}

// TestWireForwardTimeoutFailsOver: ForwardTimeout is a socket deadline. A
// worker that does not answer within it costs a transient error — which
// errors.Is os.ErrDeadlineExceeded — and the invocation fails over.
func TestWireForwardTimeoutFailsOver(t *testing.T) {
	release := make(chan struct{})
	slow := newCountedWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release }))
	defer close(release)
	fast := newCountedWorker(t, echoInvoke("fast"))
	urls := []string{slow.srv.URL, fast.srv.URL}
	probe := wireRouter(t, time.Second, nil, urls...)
	if owner, _ := ringOwner(probe.Registry(), "echo"); owner == "w2" {
		urls[0], urls[1] = urls[1], urls[0] // the slow worker owns the function
	}
	rt := wireRouter(t, 50*time.Millisecond, nil, urls...)
	res, err := rt.Invoke(context.Background(), routedReq("echo"))
	if err != nil || res.Worker != "fast" || res.ForwardAttempts != 2 {
		t.Fatalf("Invoke = %+v, %v; want the fast worker's reply on attempt 2", res, err)
	}
	if st := rt.Stats(); st.Retries != 1 || st.Failovers != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The timeout itself, seen at the wire client.
	ep := rt.wire.endpoints["w1"]
	_, _, err = ep.invoke(context.Background(), time.Now().Add(20*time.Millisecond), 0, "echo", nil)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	// A caller's deadline that comes sooner is the one that counts.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err = ep.invoke(ctx, attemptDeadline(ctx, time.Hour), 0, "echo", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWireReplyStatuses: a reply over the cap is an error that drops the
// connection; 4xx and 500 bodies pass through byte for byte; a 503 is
// retried.
func TestWireReplyStatuses(t *testing.T) {
	var calls atomic.Int64
	cw := newCountedWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, _ := httpapi.DecodeInvokeRequest(body)
		switch req.Fn {
		case "huge":
			w.Header().Set("Content-Length", fmt.Sprint(wireMaxReply+1))
			_, _ = w.Write(make([]byte, wireMaxReply+1))
		case "huge-chunked":
			for i := 0; i < wireMaxReply/4096+1; i++ {
				_, _ = w.Write(make([]byte, 4096))
			}
		case "teapot":
			http.Error(w, "  short and stout <&>\n", http.StatusTeapot)
		case "broken":
			http.Error(w, "handler exploded", http.StatusInternalServerError)
		case "flaky":
			if calls.Add(1) == 1 {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			echoInvoke("w1")(w, r)
		}
	}))
	rt := wireRouter(t, 5*time.Second, func(cfg *Config) { cfg.MaxAttempts = 2; cfg.MarkDownAfter = 100 }, cw.srv.URL)
	ep := rt.wire.endpoints["w1"]

	for _, fn := range []string{"huge", "huge-chunked"} {
		_, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: fn})
		if !errors.Is(err, httpapi.ErrBodyTooLarge) {
			t.Errorf("%s: err = %v, want ErrBodyTooLarge", fn, err)
		}
		if n := ep.idleCount(); n != 0 {
			t.Errorf("%s: %d idle connections after an oversize reply, want 0", fn, n)
		}
	}
	for fn, want := range map[string]PassThroughError{
		"teapot": {Worker: "w1", Status: http.StatusTeapot, Body: "short and stout <&>"},
		"broken": {Worker: "w1", Status: http.StatusInternalServerError, Body: "handler exploded"},
	} {
		_, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: fn})
		var pass *PassThroughError
		if !errors.As(err, &pass) || *pass != want {
			t.Errorf("%s: err = %v, want %+v", fn, err, want)
		}
	}
	before := rt.Stats()
	res, err := rt.Invoke(context.Background(), httpapi.RoutedInvokeRequest{Fn: "flaky"})
	if err != nil || res.ForwardAttempts != 2 {
		t.Fatalf("flaky: %+v, %v; want the retry's reply", res, err)
	}
	if st := rt.Stats(); st.Retries != before.Retries+1 || st.Forwarded != before.Forwarded+2 {
		t.Fatalf("a 503 was not retried: stats %+v after %+v", st, before)
	}
}

// TestWirePoolBoundsAndLifetime: the pool keeps at most wireMaxIdle
// connections, does not hand out one that sat idle past wireMaxIdleAge,
// and is emptied when its worker is marked down and when the router
// closes.
func TestWirePoolBoundsAndLifetime(t *testing.T) {
	cw := newCountedWorker(t, echoInvoke("w1"))
	rt := wireRouter(t, time.Second, func(cfg *Config) { cfg.MarkDownAfter = 1 }, cw.srv.URL)
	ep := rt.wire.endpoints["w1"]
	fill := func(n int) {
		t.Helper()
		var taken []*wireConn
		for i := 0; i < n; i++ {
			wc, err := ep.dialConn(context.Background(), time.Now().Add(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			wc.keep = true
			taken = append(taken, wc)
		}
		for _, wc := range taken {
			ep.put(wc)
		}
	}
	fill(wireMaxIdle + 4)
	if n := ep.idleCount(); n != wireMaxIdle {
		t.Fatalf("pool holds %d idle connections, want the bound %d", n, wireMaxIdle)
	}

	// Age: the whole pool sat too long; the next exchange dials.
	ep.mu.Lock()
	for _, wc := range ep.idle {
		wc.idleAt = time.Now().Add(-2 * wireMaxIdleAge)
	}
	ep.mu.Unlock()
	if _, err := rt.Invoke(context.Background(), routedReq("echo")); err != nil {
		t.Fatal(err)
	}
	// (The server counts a connection when it accepts it, which can trail
	// the dial; a served request is proof it has caught up.)
	if n := cw.conns.Load(); n != wireMaxIdle+4+1 || ep.idleCount() != 1 {
		t.Fatalf("after the pool aged out: %d connections opened since, %d idle; want 1 and 1", n-wireMaxIdle-4, ep.idleCount())
	}

	// Mark-down: the pool empties, and a connection that was in flight
	// across it is not pooled afterwards.
	inflight, err := ep.take(context.Background(), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	inflight.keep = true
	fill(3)
	rt.Registry().NoteResult("w1", false)
	if rt.Registry().State("w1") != WorkerDown || ep.idleCount() != 0 {
		t.Fatalf("after mark-down: state %v, %d idle connections; want down and 0", rt.Registry().State("w1"), ep.idleCount())
	}
	ep.put(inflight)
	if n := ep.idleCount(); n != 0 {
		t.Fatalf("a connection from before the mark-down was pooled after it")
	}

	// Close: nothing is pooled any more, but a late forward still works.
	fill(2)
	_ = rt.Close()
	if n := ep.idleCount(); n != 0 {
		t.Fatalf("%d idle connections after Close, want 0", n)
	}
	fill(1)
	if n := ep.idleCount(); n != 0 {
		t.Fatalf("a connection was pooled after Close")
	}
}

// TestWireHTTPSVerifiesTheURLHost: an https:// worker is dialled through
// crypto/tls with the URL's host as the name to verify — which a test
// server's self-signed certificate fails, as it should.
func TestWireHTTPSVerifiesTheURLHost(t *testing.T) {
	srv := httptest.NewUnstartedServer(echoInvoke("w1"))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the handshake it is about to refuse
	srv.StartTLS()
	t.Cleanup(srv.Close)
	rt := wireRouter(t, time.Second, func(cfg *Config) { cfg.MaxAttempts = 1 }, srv.URL)
	if ep := rt.wire.endpoints["w1"]; ep.tlsName != "127.0.0.1" {
		t.Fatalf("tlsName = %q, want the URL host", ep.tlsName)
	}
	_, err := rt.Invoke(context.Background(), routedReq("echo"))
	if err == nil || !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("err = %v, want a certificate verification failure", err)
	}
	for _, bad := range []string{"w1:8080", "ftp://w1", "http://", "://x"} {
		if _, err := New(Config{Workers: []WorkerSpec{{ID: "w1", URL: bad}}}); err == nil {
			t.Errorf("router.New accepted worker url %q", bad)
		}
	}
}

// TestWireDialSeam: the endpoint's dial func is where a test (or a fault
// injector) substitutes the connection — here a pipe to a hand-written
// peer that escapes the function name it is sent, so the request head's
// Content-Length is checked on its second-pass path too.
func TestWireDialSeam(t *testing.T) {
	rt := wireRouter(t, time.Second, nil, "http://worker.invalid:81/p")
	ep := rt.wire.endpoints["w1"]
	got := make(chan string, 1)
	ep.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if network != "tcp" || addr != "worker.invalid:81" {
			return nil, fmt.Errorf("dialled %s %s", network, addr)
		}
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			buf := make([]byte, 4096)
			n, _ := server.Read(buf)
			got <- string(buf[:n])
			line := `{"fn":"f","result":1,"containerId":"c","cold":false,"attempts":1,"latency":{"schedMillis":0,"coldMillis":0,"queueMillis":0,"execMillis":0,"totalMillis":0}}`
			fmt.Fprintf(server, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(line), line)
		}()
		return client, nil
	}
	res, err := rt.InvokeTraced(context.Background(), httpapi.RoutedInvokeRequest{Fn: `a"<b>`, Payload: json.RawMessage(`[1]`)}, 0)
	if err != nil || res.Worker != "w1" || string(res.Result) != "1" {
		t.Fatalf("Invoke through the dial seam = %+v, %v", res, err)
	}
	const body = `{"fn":"a\"\u003cb\u003e","payload":[1]}`
	want := fmt.Sprintf("POST /p/invoke HTTP/1.1\r\nHost: worker.invalid:81\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	if req := <-got; req != want {
		t.Fatalf("request on the wire:\n%q\nwant\n%q", req, want)
	}
}

// routedForwardAllocs is what one warm routed invocation costs inside the
// router — admission, ring pick, binding, the exchange on a pooled
// connection, the splice — plus two. The worker's side (net/http's server
// and the gateway handler behind it) runs on other goroutines and is
// counted too: AllocsPerRun reads the process's malloc count. 27 measured
// once both bindings were recycled, the ring picked into the binding's
// slice, the gateway looked the function up from the body's bytes and the
// worker took its ready ticket without the request context's channel.
const routedForwardAllocs = 29

// pullForwardAllocs is the same forward under the pull policy: its lease
// grant and ack, on a recycled binding and channel, cost what the hash
// policy's ring pick into a recycled binding does — nothing.
const pullForwardAllocs = routedForwardAllocs

// TestRoutedForwardAllocBudget pins the byte path of Router.Invoke
// against a loopback worker whose handler is the real gateway handler.
func TestRoutedForwardAllocBudget(t *testing.T) {
	if avg := measureRoutedForward(t); avg > routedForwardAllocs {
		t.Fatalf("routed forward allocates %.1f objects/op, want <= %d", avg, routedForwardAllocs)
	} else {
		t.Logf("routed forward: %.1f allocs/op", avg)
	}
}

// TestPullForwardAllocBudget is TestRoutedForwardAllocBudget under the
// pull policy: binding by lease costs what binding by ring does.
func TestPullForwardAllocBudget(t *testing.T) {
	if avg := measureRoutedForward(t, WithPolicy(PolicyPull)); avg > pullForwardAllocs {
		t.Fatalf("pull forward allocates %.1f objects/op, want <= %d", avg, pullForwardAllocs)
	} else {
		t.Logf("pull forward: %.1f allocs/op", avg)
	}
}

// measureRoutedForward returns the allocations of one warm
// Router.invokeLine, through a router built with opts, to a loopback
// worker serving the real gateway handler.
func measureRoutedForward(t *testing.T, opts ...Option) float64 {
	t.Helper()
	if obstest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, err := platform.New(platform.Config{
		Mode: platform.ModeBatch, AdaptiveDispatch: true, MaxGroupSize: 1,
		DispatchInterval: 20 * time.Millisecond, KeepAlive: time.Hour, WorkerID: "w1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	err = p.Register("echo", func(_ context.Context, inv *platform.Invocation) (any, error) { return inv.Payload, nil })
	if err != nil {
		t.Fatal(err)
	}
	p.SetReady(true)
	srv := httptest.NewServer(platform.NewHTTPHandler(p))
	defer srv.Close()
	rt, err := New(Config{
		Workers:      []WorkerSpec{{ID: "w1", URL: srv.URL}},
		RetryBackoff: -1, ForwardTimeout: 5 * time.Second, ProbeTimeout: time.Second,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	req := httpapi.RoutedInvokeRequest{Fn: "echo", Payload: json.RawMessage(`{"n":1}`)}
	buf := make([]byte, 0, 1024)
	// A cancellable context, as the serving edge's is: the cancellation
	// hook is part of the cost.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	forward := func() {
		line, _, err := rt.invokeLine(ctx, req, 0, buf[:0])
		if err != nil || !bytes.Contains(line, []byte(`"result":{"n":1}`)) {
			t.Fatalf("invokeLine = %q, %v", line, err)
		}
	}
	for i := 0; i < 64; i++ {
		forward()
	}
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	return testing.AllocsPerRun(200, forward)
}

// TestWireStressWithWorkerRestart drives 32 clients through the router's
// HTTP front to two real gateways while one gateway's server is torn
// down and brought back on the same address. Every 200 must echo its own
// request's payload — a request or reply buffer recycled while something
// still referenced it shows up as another request's bytes — and the
// router must have completed exactly the invocations that got a 200.
func TestWireStressWithWorkerRestart(t *testing.T) {
	const clients, perClient = 32, 60
	var handlers []http.Handler
	var servers []*httptest.Server
	var urls []string
	for _, id := range []string{"w1", "w2"} {
		p, err := platform.New(platform.Config{
			Mode: platform.ModeBatch, AdaptiveDispatch: true, MaxGroupSize: 4,
			DispatchInterval: 2 * time.Millisecond, KeepAlive: time.Hour, WorkerID: id,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		for f := 0; f < 8; f++ {
			err := p.Register(fmt.Sprintf("echo-%d", f), func(_ context.Context, inv *platform.Invocation) (any, error) {
				return inv.Payload, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		p.SetReady(true)
		h := platform.NewHTTPHandler(p)
		srv := httptest.NewServer(h)
		handlers, servers, urls = append(handlers, h), append(servers, srv), append(urls, srv.URL)
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})
	rt := wireRouter(t, 2*time.Second, func(cfg *Config) {
		cfg.RetryBackoff = time.Millisecond
		cfg.MaxAttempts = 4
		cfg.ProbeInterval = 5 * time.Millisecond
		cfg.MarkUpAfter = 1
	}, urls...)
	rt.Start()
	front := httptest.NewServer(NewHTTPHandler(rt))
	defer front.Close()

	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		time.Sleep(20 * time.Millisecond)
		addr := servers[0].Listener.Addr().String()
		servers[0].CloseClientConnections()
		servers[0].Close()
		time.Sleep(20 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("re-listen on %s: %v", addr, err)
			return
		}
		srv := httptest.NewUnstartedServer(handlers[0])
		_ = srv.Listener.Close()
		srv.Listener = ln
		srv.Start()
		servers[0] = srv
	}()

	var ok200 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				payload := fmt.Sprintf(`{"client":%d,"i":%d,"pad":"%s"}`, c, i, strings.Repeat("x", (c*7+i)%200))
				body := fmt.Sprintf(`{"fn":"echo-%d","payload":%s}`, (c+i)%8, payload)
				resp, err := client.Post(front.URL+"/invoke", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				reply, _ := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					continue // attempts exhausted while the worker was away
				}
				ok200.Add(1)
				var res httpapi.RoutedInvokeResponse
				if err := json.Unmarshal(reply, &res); err != nil || string(res.Result) != payload {
					t.Errorf("client %d request %d: reply %q does not echo payload %q (err %v)", c, i, reply, payload, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-restarted
	st := rt.Stats()
	if st.Completed != ok200.Load() {
		t.Fatalf("router completed %d invocations, clients got %d 200s", st.Completed, ok200.Load())
	}
	if ok200.Load() < clients*perClient*9/10 {
		t.Fatalf("only %d of %d requests were served across the restart", ok200.Load(), clients*perClient)
	}
	t.Logf("%d of %d served; %d retries, %d failovers", ok200.Load(), clients*perClient, st.Retries, st.Failovers)
}
