package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"

	"faasbatch/internal/obs"
)

// server.go is the serving edge the gateway (internal/platform) and the
// router (internal/router) share: route registration under the legacy and
// /v1 paths with the method guard, the capped body read, traceparent in
// and out, and the two response writers. Each package's NewHTTPHandler is
// a route table over it. Nothing here allocates per request beyond what
// net/http already does.

// PromContentType is the Content-Type of a Prometheus text exposition.
const PromContentType = "text/plain; version=0.0.4"

// Route is one endpoint of a serving edge.
type Route struct {
	// Path is the legacy unversioned path; the route is also served,
	// identically, under "/v1"+Path, so the two surfaces cannot drift.
	Path string
	// Method is the one method the route accepts; anything else answers
	// 405 "<Method> required". Empty accepts every method.
	Method string
	// Handler serves the route.
	Handler http.HandlerFunc
}

// NewMux registers every route under both of its paths.
func NewMux(routes []Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		h := rt.Handler
		if rt.Method != "" {
			h = requireMethod(rt.Method, h)
		}
		mux.HandleFunc(rt.Path, h)
		mux.HandleFunc("/v1"+rt.Path, h)
	}
	return mux
}

// requireMethod wraps h in the method guard (built once per route).
func requireMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	refusal := method + " required"
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, refusal, http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// ErrBodyTooLarge reports that AppendRead saw more than its cap.
var ErrBodyTooLarge = errors.New("httpapi: body too large")

// AppendRead reads r to EOF, appending to dst and growing it as needed,
// and fails with ErrBodyTooLarge once more than max bytes have arrived.
// The grown buffer comes back even on error, so a pooled caller keeps its
// capacity.
func AppendRead(dst []byte, r io.Reader, max int) ([]byte, error) {
	base := len(dst)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst)-base > max {
			return dst, ErrBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadBody reads an /invoke request body under MaxInvokeBodyBytes into a
// pooled buffer sized from Content-Length. On failure it has already
// answered — 413 for an oversize body (the client exceeded the advertised
// cap; RFC 9110 §15.5.14), 400 for a read error — and reports false.
//
// The caller owns the buffer: a decoded request's Payload aliases it, so
// Recycle it only once the response is written and only when the invoke
// returned normally — after a cancelled or timed-out invoke an abandoned
// handler may still be reading the payload, and the buffer is left to
// the garbage collector instead.
func ReadBody(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	bufp := bufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	// One spare byte lets a reader that reports EOF on its own call (not
	// with the last bytes, as net/http's does) finish without growing.
	if n := r.ContentLength; n >= int64(cap(buf)) && n <= MaxInvokeBodyBytes {
		buf = make([]byte, 0, n+1)
	}
	buf, err := AppendRead(buf, r.Body, MaxInvokeBodyBytes)
	*bufp = buf
	if err != nil {
		Recycle(bufp) // nothing was decoded out of it
		if errors.Is(err, ErrBodyTooLarge) {
			// As http.MaxBytesReader did: the unread rest of an oversize
			// body is not worth draining to keep the connection.
			w.Header().Set("Connection", "close")
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", int64(MaxInvokeBodyBytes)), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	return bufp, true
}

// InboundTrace returns the trace ID of the request's traceparent header
// (minted by a router or an external caller), zero when absent. A
// malformed header is ignored rather than rejected, per the W3C
// processing model.
func InboundTrace(r *http.Request) uint64 {
	id, _ := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
	return id
}

// EchoTrace sets the response's traceparent header so the caller can
// correlate the reply with its trace even when this process minted the
// ID. Zero (tracing off) sets nothing.
func EchoTrace(w http.ResponseWriter, id uint64) {
	if id != 0 {
		w.Header().Set(obs.TraceParentHeader, obs.FormatTraceParent(id))
	}
}

// jsonContentType is the one Content-Type value every JSON reply shares:
// assigning the slice costs nothing per request where Header.Set would
// allocate a fresh one-element slice. Nothing appends to it in place.
var jsonContentType = []string{"application/json"}

// bufPool recycles the byte buffers of the serving edge: request bodies
// (ReadBody) and response lines (LineBuffer). A buffer has one owner from
// borrow to Recycle, and nothing aliases it after Recycle.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// LineBuffer borrows a response buffer: encode into (*bufp)[:0] and hand
// both to WriteLine.
func LineBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// Recycle returns a borrowed buffer whose bytes nothing references any
// more.
func Recycle(bufp *[]byte) { bufPool.Put(bufp) }

// WriteLine sends line — a JSON document encoded into the borrowed buffer
// — plus the trailing newline json.Encoder would write, then recycles the
// buffer. The header is out by the time a write fails, so the failure can
// only be logged.
func WriteLine(w http.ResponseWriter, r *http.Request, logger *slog.Logger, bufp *[]byte, line []byte) {
	line = append(line, '\n')
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(line); err != nil {
		logger.Warn("response write failed", "path", r.URL.Path, "err", err)
	}
	*bufp = line
	Recycle(bufp)
}

// WriteJSON answers status with v through encoding/json, for the replies
// that are not worth a byte-level encoder.
func WriteJSON(w http.ResponseWriter, r *http.Request, logger *slog.Logger, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger.Warn("response encode failed", "path", r.URL.Path, "err", err)
	}
}
