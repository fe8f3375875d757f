package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
)

// wire.go is the router's client side of HTTP/1.1, for the one hop where
// both ends are ours: router to worker. Every exchange — a forwarded
// /invoke, a /healthz probe, a /cluster/* scrape — takes a kept-alive
// connection from the worker's pool, writes the whole request with one
// Write, reads the reply on the caller's goroutine and puts the
// connection back. There is no request or response object, no goroutine
// per connection and no hand-off between goroutines; time limits are
// socket deadlines. net/http's client does the same job for any server
// behind any proxy at several times the cost (DESIGN.md §14, "the forward
// path's ledger"). The rules the client holds:
//
//   - Framing: Content-Length, chunked and close-delimited replies are
//     read; Connection: close and HTTP/1.0 replies end the connection's
//     life. A reply body over wireMaxReply is an error.
//   - Pooling: a connection is pooled only after its reply was read to the
//     end with no error and no cancellation, at most wireMaxIdle per
//     worker, and one idle longer than wireMaxIdleAge is not taken again.
//     Marking a worker down empties its pool, so a restarted worker gets
//     new connections; Router.Close empties them all.
//   - Stale connection: a pooled connection the worker closed while it sat
//     idle fails before the first reply byte; the request is then sent
//     once more on a new connection, inside the same attempt. A new
//     connection that fails is a transport error.
//   - Cancellation: the attempt's deadline is the socket's; a cancelled
//     caller expires it from one context.AfterFunc, and the error then
//     wraps ctx.Err().
const (
	// wireMaxIdle bounds the idle connections kept per worker.
	wireMaxIdle = 32
	// wireMaxIdleAge is how long a connection may sit idle and still be
	// taken; past it the worker's side may have timed it out.
	wireMaxIdleAge = 30 * time.Second
	// wireMaxReply caps a reply body.
	wireMaxReply = 4 << 20
	// wireKeepBuf is the largest reply buffer a pooled connection keeps (a
	// /metrics scrape can grow it far past what a forward needs).
	wireKeepBuf = 64 << 10
)

// dialFunc opens the transport connection to a worker: net.Dialer's
// DialContext outside tests. It is the seam where a test — or a fault
// injector — stands in a connection that delays, drops or half-opens.
type dialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// errMalformedReply reports a reply head the client cannot read.
var errMalformedReply = errors.New("malformed HTTP reply")

// aLongTimeAgo is a deadline that has always passed.
var aLongTimeAgo = time.Unix(1, 0)

// wireClient holds one endpoint per registered worker. The worker set is
// fixed at construction, so the map is read without a lock.
type wireClient struct {
	endpoints map[string]*endpoint
}

func newWireClient(specs []WorkerSpec, dial dialFunc) (*wireClient, error) {
	c := &wireClient{endpoints: make(map[string]*endpoint, len(specs))}
	for _, spec := range specs {
		ep, err := newEndpoint(spec, dial)
		if err != nil {
			return nil, err
		}
		c.endpoints[spec.ID] = ep
	}
	return c, nil
}

// dropIdle closes the worker's idle connections (it was marked down or
// left the serving set).
func (c *wireClient) dropIdle(id string) {
	if ep := c.endpoints[id]; ep != nil {
		ep.closeIdle(false)
	}
}

// close empties every pool for good: connections still in flight are
// closed as they finish.
func (c *wireClient) close() {
	for _, ep := range c.endpoints {
		ep.closeIdle(true)
	}
}

// endpoint is one worker's address, precomputed request heads and pool.
type endpoint struct {
	id         string
	addr       string // host:port to dial
	tlsName    string // https: the certificate name to verify; "" for http
	prefix     string // path prefix of the base URL
	invokeHead []byte // POST …/invoke request head, up to the Content-Length value
	getTail    []byte // what follows a GET's path: protocol, Host, blank line
	dial       dialFunc
	// latency is the worker's forward-latency histogram, resolved once by
	// router.New so a forward takes no registry-wide lock.
	latency *obs.ForwardLatency

	mu     sync.Mutex
	idle   []*wireConn // most recently used last
	gen    uint64      // bumped by closeIdle: a connection dialled before is not pooled
	closed bool
}

func newEndpoint(spec WorkerSpec, dial dialFunc) (*endpoint, error) {
	u, err := url.Parse(spec.URL)
	if err != nil {
		return nil, fmt.Errorf("router: worker %s: %w", spec.ID, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" {
		return nil, fmt.Errorf("router: worker %s: url %q needs an http:// or https:// scheme and a host", spec.ID, spec.URL)
	}
	ep := &endpoint{id: spec.ID, prefix: strings.TrimSuffix(u.EscapedPath(), "/"), dial: dial}
	port := u.Port()
	if u.Scheme == "https" {
		ep.tlsName = u.Hostname()
		if port == "" {
			port = "443"
		}
	} else if port == "" {
		port = "80"
	}
	ep.addr = net.JoinHostPort(u.Hostname(), port)
	ep.getTail = []byte(" HTTP/1.1\r\nHost: " + u.Host + "\r\n\r\n")
	ep.invokeHead = []byte("POST " + ep.prefix + "/invoke HTTP/1.1\r\nHost: " + u.Host +
		"\r\nContent-Type: application/json\r\nContent-Length: ")
	return ep, nil
}

// wireConn is one kept-alive connection with the buffers that travel with
// it. It has one owner at a time: the pool, or the exchange that took it.
type wireConn struct {
	c      net.Conn
	br     *bufio.Reader
	wbuf   []byte    // the request, kept for a resend on a stale connection
	rbuf   []byte    // the reply body, valid until the connection is put back
	expire func()    // expires c's deadline; built once, so arming it allocates no closure
	idleAt time.Time // when it was pooled
	gen    uint64
	reused bool // taken from the pool, not dialled for this exchange
	keep   bool // the reply left the connection fit to pool
}

// attemptDeadline is when an exchange that may take timeout must end: at
// that, or at ctx's own deadline if it comes sooner.
func attemptDeadline(ctx context.Context, timeout time.Duration) time.Time {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		return d
	}
	return deadline
}

// invoke forwards one invocation: POST <base>/invoke with the canonical
// InvokeRequest body and, for a traced invocation, a traceparent header.
// On success the reply body is wc.rbuf until the caller hands wc to put.
func (e *endpoint) invoke(ctx context.Context, deadline time.Time, trace uint64, fn string, payload []byte) (wc *wireConn, status int, err error) {
	if wc, err = e.take(ctx, deadline); err != nil {
		return nil, 0, err
	}
	// Content-Length precedes the body it measures. A function name that
	// needs no escaping — nearly all of them — makes the body's length
	// known in advance; one that does costs a second pass.
	n := len(`{"fn":""}`) + len(fn)
	if len(payload) > 0 {
		n += len(`,"payload":`) + len(payload)
	}
	for {
		b := append(wc.wbuf[:0], e.invokeHead...)
		b = strconv.AppendInt(b, int64(n), 10)
		if trace != 0 {
			b = append(b, "\r\n"+obs.TraceParentHeader+": "...)
			b = obs.AppendTraceParent(b, trace)
		}
		b = append(b, "\r\n\r\n"...)
		head := len(b)
		b = httpapi.AppendInvokeRequest(b, fn, payload)
		wc.wbuf = b
		if len(b)-head == n {
			break
		}
		n = len(b) - head
	}
	return e.roundTrip(ctx, deadline, wc)
}

// get fetches <base><path>. On success the reply body is wc.rbuf until
// the caller hands wc to put.
func (e *endpoint) get(ctx context.Context, deadline time.Time, path string) (wc *wireConn, status int, err error) {
	if wc, err = e.take(ctx, deadline); err != nil {
		return nil, 0, err
	}
	b := append(wc.wbuf[:0], "GET "...)
	b = append(b, e.prefix...)
	b = append(b, path...)
	wc.wbuf = append(b, e.getTail...)
	return e.roundTrip(ctx, deadline, wc)
}

// roundTrip sends wc's request and reads the reply, redialling once when a
// pooled connection turns out to have been closed under it. A failed
// exchange closes its connection and returns none.
func (e *endpoint) roundTrip(ctx context.Context, deadline time.Time, wc *wireConn) (*wireConn, int, error) {
	for {
		status, started, err := wc.exchange(ctx, deadline)
		if err == nil {
			return wc, status, nil
		}
		_ = wc.c.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
				// The socket's timer beat the context's to the same instant.
				return nil, 0, context.DeadlineExceeded
			}
			return nil, 0, err
		}
		if !wc.reused || started {
			return nil, 0, err
		}
		// The worker closed this connection while it sat in the pool (an
		// idle timeout, a restart): the request never reached a handler.
		// Not the worker failing — send it again on a new connection.
		fresh, derr := e.dialConn(ctx, deadline)
		if derr != nil {
			return nil, 0, derr
		}
		fresh.wbuf, wc.wbuf = wc.wbuf, nil
		wc = fresh
	}
}

// exchange writes the request with one Write and reads the reply under
// deadline. started reports whether any reply byte arrived.
func (wc *wireConn) exchange(ctx context.Context, deadline time.Time) (status int, started bool, err error) {
	if err := wc.c.SetDeadline(deadline); err != nil {
		return 0, false, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, wc.expire)
	}
	if _, err = wc.c.Write(wc.wbuf); err == nil {
		status, started, err = wc.readReply()
	}
	if stop != nil && !stop() {
		// The expiry ran, or is running: the deadline on this socket is no
		// longer this exchange's to set, so the connection ends here.
		wc.keep = false
	}
	return status, started, err
}

// readReply parses the status line and the headers that frame the body,
// then reads the body into rbuf.
func (wc *wireConn) readReply() (status int, started bool, err error) {
	if _, err := wc.br.Peek(1); err != nil {
		return 0, false, err
	}
	line, err := wc.br.ReadSlice('\n')
	if err != nil {
		return 0, true, err
	}
	// "HTTP/1.x NNN reason"
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' {
		return 0, true, errMalformedReply
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return 0, true, errMalformedReply
		}
		status = status*10 + int(c-'0')
	}
	wc.keep = line[7] == '1'
	length, chunked := -1, false
	for {
		if line, err = wc.br.ReadSlice('\n'); err != nil {
			return 0, true, err
		}
		line = trimOWS(line)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, true, errMalformedReply
		}
		name, value := line[:colon], trimOWS(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("content-length")):
			if len(value) == 0 {
				return 0, true, errMalformedReply
			}
			length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return 0, true, errMalformedReply
				}
				if length = length*10 + int(c-'0'); length > wireMaxReply {
					return 0, true, httpapi.ErrBodyTooLarge
				}
			}
		case bytes.EqualFold(name, []byte("transfer-encoding")):
			if !bytes.EqualFold(value, []byte("chunked")) {
				return 0, true, fmt.Errorf("%w: transfer-encoding %q", errMalformedReply, value)
			}
			chunked = true
		case bytes.EqualFold(name, []byte("connection")):
			if bytes.EqualFold(value, []byte("close")) {
				wc.keep = false
			}
		}
	}
	wc.rbuf = wc.rbuf[:0]
	switch {
	case status == 204 || status == 304:
		// No body, whatever the headers say.
	case chunked:
		if wc.rbuf, err = httpapi.AppendRead(wc.rbuf, httputil.NewChunkedReader(wc.br), wireMaxReply); err != nil {
			return 0, true, err
		}
		for { // the trailer section, through its blank line
			if line, err = wc.br.ReadSlice('\n'); err != nil {
				return 0, true, err
			}
			if len(trimOWS(line)) == 0 {
				break
			}
		}
	case length >= 0:
		if cap(wc.rbuf) < length {
			wc.rbuf = make([]byte, 0, length)
		}
		wc.rbuf = wc.rbuf[:length]
		if _, err = io.ReadFull(wc.br, wc.rbuf); err != nil {
			return 0, true, err
		}
	default:
		// Close-delimited: the body is everything until the worker hangs up.
		wc.keep = false
		if wc.rbuf, err = httpapi.AppendRead(wc.rbuf, wc.br, wireMaxReply); err != nil {
			return 0, true, err
		}
	}
	return status, true, nil
}

// trimOWS trims the spaces, tabs and line ending around a header line or
// value.
func trimOWS(b []byte) []byte {
	space := func(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
	for len(b) > 0 && space(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && space(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// take returns a connection to exchange on: the most recently pooled one
// if it is young enough, else a new one.
func (e *endpoint) take(ctx context.Context, deadline time.Time) (*wireConn, error) {
	var expired []*wireConn
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		if wc := e.idle[n-1]; time.Since(wc.idleAt) < wireMaxIdleAge {
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
			e.mu.Unlock()
			wc.reused = true
			return wc, nil
		}
		// Last in, first out: everything beneath is older still.
		expired, e.idle = e.idle, nil
	}
	e.mu.Unlock()
	for _, wc := range expired {
		_ = wc.c.Close()
	}
	return e.dialConn(ctx, deadline)
}

// dialConn opens a new connection, through TLS for an https worker.
func (e *endpoint) dialConn(ctx context.Context, deadline time.Time) (*wireConn, error) {
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	c, err := e.dial(dctx, "tcp", e.addr)
	if err != nil {
		return nil, err
	}
	if e.tlsName != "" {
		tc := tls.Client(c, &tls.Config{ServerName: e.tlsName})
		if err := tc.HandshakeContext(dctx); err != nil {
			_ = c.Close()
			return nil, err
		}
		c = tc
	}
	e.mu.Lock()
	gen := e.gen
	e.mu.Unlock()
	return &wireConn{
		c: c, br: bufio.NewReader(c), gen: gen,
		expire: func() { _ = c.SetDeadline(aLongTimeAgo) },
	}, nil
}

// put ends an exchange: the connection goes back to the pool if its reply
// left it fit to, and is closed otherwise. Nothing may reference wc.rbuf
// afterwards.
func (e *endpoint) put(wc *wireConn) {
	// Bytes past the reply's end would be read as the next reply's start.
	pool := wc.keep && wc.br.Buffered() == 0
	if pool {
		if cap(wc.rbuf) > wireKeepBuf {
			wc.rbuf = nil
		}
		wc.idleAt = time.Now()
		e.mu.Lock()
		if pool = !e.closed && wc.gen == e.gen && len(e.idle) < wireMaxIdle; pool {
			e.idle = append(e.idle, wc)
		}
		e.mu.Unlock()
	}
	if !pool {
		_ = wc.c.Close()
	}
}

// closeIdle closes the pooled connections and disowns the ones in flight;
// final also stops any later pooling.
func (e *endpoint) closeIdle(final bool) {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.gen++
	e.closed = e.closed || final
	e.mu.Unlock()
	for _, wc := range idle {
		_ = wc.c.Close()
	}
}
