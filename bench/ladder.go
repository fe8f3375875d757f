package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/router"
)

// The latency ladder pushes one seeded request stream, one caller, through
// successively taller stacks — codec, Platform.Invoke, the gateway handler
// in memory, the gateway over loopback HTTP, the router in process, the
// router over HTTP — timing every call from outside as a span. A rung's
// self time is its median minus the medians of the rungs it contains.

// Rung names; each is also the stem of its per-layer metric.
const (
	rungDecode    = "httpapi.decode"
	rungEncodeRes = "httpapi.encode_response"
	rungEncodeReq = "httpapi.encode_request"
	rungInvoke    = "platform.invoke"
	rungHandler   = "gateway.handler"
	rungGateway   = "gateway.roundtrip"
	rungRing      = "router.ring_candidates"
	rungAssign    = "router.policy_assign"
	rungPullCore  = "pullsched.enqueue_complete"
	rungRouterIn  = "router.invoke"
	rungRouter    = "router.roundtrip"
	// rungOff parents a rung measured outside the call tree.
	rungOff = "-"
)

// fastReps is how many back-to-back calls one span of a sub-microsecond
// rung covers; the span then carries the per-call mean, so the two clock
// reads do not drown the call.
const fastReps = 16

// rung is one measured layer call.
type rung struct {
	name, parent string
	// reps is how many back-to-back calls one span covers.
	reps int
	// prep, when set, runs before the call, outside its span.
	prep func(i int)
	call func(i int) error
	ns   []int64 // per request
}

type ladder struct {
	tr    *obs.Tracer
	reqs  []request
	rungs []*rung
}

func (l *ladder) add(name, parent string, reps int, prep func(i int), call func(i int) error) {
	l.rungs = append(l.rungs, &rung{name: name, parent: parent, reps: reps, prep: prep, call: call})
}

func (l *ladder) rung(name string) *rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	panic("bench: no rung " + name)
}

// ladderBlock is how many requests a rung takes in a row before the next
// rung has its turn. Taking turns puts every rung under the same spell of
// the shared box, so that differences between rungs are differences
// between layers; a hundred in a row keep the rung's connections and
// goroutines as hot as a closed-loop caller keeps them (one request at a
// time through all rungs parks them in between, and the HTTP rungs then
// read 40 % high).
const ladderBlock = 100

// block pushes requests lo to hi through every rung, shortest stack
// first. With timed set it records each call as a span.
func (l *ladder) block(lo, hi int, timed bool) error {
	for _, r := range l.rungs {
		for i := lo; i < hi; i++ {
			if r.prep != nil {
				r.prep(i)
			}
			t0 := l.tr.Now()
			for k := 0; k < r.reps; k++ {
				if err := r.call(i); err != nil {
					return fmt.Errorf("%s: request %d: %w", r.name, i, err)
				}
			}
			if timed {
				d := (l.tr.Now() - t0) / time.Duration(r.reps)
				r.ns[i] = int64(d)
				span(l.tr, uint64(i+1), r.name, r.parent, l.reqs[i].fn, t0, t0+d)
			}
		}
	}
	return nil
}

// run measures every rung over the request stream, after a tenth as many
// untimed requests.
func (l *ladder) run() error {
	n := len(l.reqs)
	for _, r := range l.rungs {
		r.ns = make([]int64, n)
	}
	if err := l.block(0, n/10+1, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for lo := 0; lo < n; lo += ladderBlock {
		if err := l.block(lo, min(lo+ladderBlock, n), true); err != nil {
			return err
		}
	}
	return nil
}

// mallocsOver returns the heap allocations fn performs.
func mallocsOver(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocs returns the heap allocations of one call of the rung, over the
// request stream; a prep's allocations are measured alone and
// subtracted.
func (l *ladder) allocs(name string) (float64, error) {
	r := l.rung(name)
	n := len(l.reqs)
	var err error
	mallocs := mallocsOver(func() {
		for i := 0; i < n && err == nil; i++ {
			if r.prep != nil {
				r.prep(i)
			}
			err = r.call(i)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if r.prep != nil {
		prepOnly := mallocsOver(func() {
			for i := 0; i < n; i++ {
				r.prep(i)
			}
		})
		if prepOnly > mallocs {
			prepOnly = mallocs
		}
		mallocs -= prepOnly
	}
	return float64(mallocs) / float64(n), nil
}

func medianInt64(vs []int64) float64 {
	fs := make([]float64, len(vs))
	for i, v := range vs {
		fs[i] = float64(v)
	}
	return median(fs)
}

// self is the rung's median minus the medians of its children.
func (l *ladder) self(name string) float64 {
	self := medianInt64(l.rung(name).ns)
	for _, c := range l.rungs {
		if c.parent == name {
			self -= medianInt64(c.ns)
		}
	}
	return self
}

// memWriter is an in-memory http.ResponseWriter, so the gateway handler
// can be timed without a socket.
type memWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

// runLadder measures every rung and writes the ladder's per-layer
// metrics into vals. policy selects the router policy the router rungs
// run under.
func runLadder(o options, tr *obs.Tracer, policy string, vals map[string]float64) (err error) {
	l := &ladder{tr: tr, reqs: genRequests(o.seed, o.probeN(), echoFnNames())}
	ctx := context.Background()

	gw, err := newGatewayStack()
	if err != nil {
		return err
	}
	rt, err := newRoutedStack(policy)
	if err != nil {
		_ = gw.close()
		return err
	}
	gwClient, rtClient := newHTTPClient(gw.url), newHTTPClient(rt.url)
	defer func() {
		gwClient.close()
		rtClient.close()
		if cerr := errors.Join(gw.close(), rt.close()); err == nil {
			err = cerr
		}
	}()
	p := gw.platforms[0]

	// Codec rungs.
	l.add(rungDecode, rungHandler, fastReps, nil, func(i int) error {
		req, err := httpapi.DecodeInvokeRequest(l.reqs[i].body)
		if err == nil && req.Fn != l.reqs[i].fn {
			err = fmt.Errorf("decoded fn %q, sent %q", req.Fn, l.reqs[i].fn)
		}
		return err
	})
	buf := make([]byte, 0, 512)
	l.add(rungEncodeRes, rungHandler, fastReps, nil, func(i int) error {
		q := &l.reqs[i]
		out := httpapi.InvokeResponse{
			Fn: q.fn, Result: q.payload, ContainerID: "live-0001-" + q.fn, Attempts: 1,
			Latency: httpapi.Latency{SchedMillis: 0.002, ExecMillis: 0.001, TotalMillis: 0.003},
		}
		buf = httpapi.AppendInvokeResponse(buf[:0], &out, 0)
		if !replyOK(buf, q.payload, false) {
			return fmt.Errorf("encoded response lost the payload")
		}
		return nil
	})
	l.add(rungEncodeReq, rungRouterIn, fastReps, nil, func(i int) error {
		q := &l.reqs[i]
		buf = httpapi.AppendInvokeRequest(buf[:0], q.fn, q.payload)
		if !bytes.Equal(buf, q.body) {
			return fmt.Errorf("encoded request %q differs from generated %q", buf, q.body)
		}
		return nil
	})

	// The warm platform, called directly and then through its handler
	// with an in-memory response writer.
	l.add(rungInvoke, rungHandler, fastReps, nil, func(i int) error {
		q := &l.reqs[i]
		res, err := p.Invoke(ctx, q.fn, q.payload)
		if got, _ := res.Value.(json.RawMessage); err == nil && !bytes.Equal(got, q.payload) {
			err = fmt.Errorf("echoed %q", got)
		}
		return err
	})
	handler := platform.NewHTTPHandler(p)
	w := &memWriter{h: http.Header{}}
	var hreq *http.Request
	l.add(rungHandler, rungGateway, 1,
		func(i int) {
			hreq = httptest.NewRequest(http.MethodPost, "/invoke", bytes.NewReader(l.reqs[i].body))
			clear(w.h)
			w.buf.Reset()
			w.code = 0
		},
		func(i int) error {
			handler.ServeHTTP(w, hreq)
			if (w.code != 0 && w.code != http.StatusOK) || !replyOK(w.buf.Bytes(), l.reqs[i].payload, false) {
				return fmt.Errorf("handler answered %d %q", w.code, w.buf.Bytes())
			}
			return nil
		})

	// One client over loopback HTTP.
	roundtrip := func(cl *httpClient, routed bool) func(i int) error {
		return func(i int) error {
			q := &l.reqs[i]
			if !cl.post(q.body) || !replyOK(cl.buf.Bytes(), q.payload, routed) {
				return fmt.Errorf("bad reply %q", cl.buf.Bytes())
			}
			return nil
		}
	}
	l.add(rungGateway, rungRouterIn, 1, nil, roundtrip(gwClient, false))

	// Router rungs: the ring lookup, the policy's assign/next/done, the
	// pull core alone, then a real forward in process and over HTTP. The
	// ring lookup sits under assign for the hash policy and the pull core
	// for the pull policy; the other is measured beside the tree.
	ringParent, coreParent := rungAssign, rungOff
	if policy == router.PolicyPull {
		ringParent, coreParent = rungOff, rungAssign
	}
	reg := rt.router.Registry()
	l.add(rungRing, ringParent, fastReps, nil, func(i int) error {
		if len(reg.Candidates(l.reqs[i].fn, router.DefaultLoadBound)) == 0 {
			return fmt.Errorf("no candidates")
		}
		return nil
	})
	pol := rt.router.Policy()
	l.add(rungAssign, rungRouterIn, fastReps, nil, func(i int) error {
		b, err := pol.Assign(ctx, l.reqs[i].fn)
		if err != nil {
			return err
		}
		_, err = b.Next(ctx, 1)
		b.Done(err == nil)
		return err
	})
	core, err := pullsched.New(pullsched.Config{Workers: 2})
	if err != nil {
		return err
	}
	var leaseID int64
	l.add(rungPullCore, coreParent, fastReps, nil, func(i int) error {
		leaseID++
		off := time.Duration(leaseID) * time.Microsecond
		if grants, shed := core.Enqueue(leaseID, l.reqs[i].fn, off); shed || len(grants) != 1 {
			return fmt.Errorf("enqueue: %d grants, shed %v", len(grants), shed)
		}
		core.Complete(leaseID, off)
		return nil
	})
	l.add(rungRouterIn, rungRouter, 1, nil, func(i int) error {
		q := &l.reqs[i]
		res, err := rt.router.Invoke(ctx, httpapi.RoutedInvokeRequest{Fn: q.fn, Payload: q.payload})
		if err == nil && (!bytes.Equal(res.Result, q.payload) || res.Worker == "") {
			err = fmt.Errorf("routed reply %q from worker %q", res.Result, res.Worker)
		}
		return err
	})
	l.add(rungRouter, "", 1, nil, roundtrip(rtClient, true))

	if err := l.run(); err != nil {
		return err
	}
	for _, r := range l.rungs {
		vals[r.name+"_ns"] = medianInt64(r.ns)
	}
	for _, name := range []string{rungInvoke, rungHandler, rungRouterIn} {
		if vals[name+"_allocs"], err = l.allocs(name); err != nil {
			return err
		}
	}
	vals["gateway.handler_self_ns"] = l.self(rungHandler)
	vals["gateway.http_self_ns"] = l.self(rungGateway)
	vals["router.forward_self_ns"] = l.self(rungRouterIn)
	vals["router.http_self_ns"] = l.self(rungRouter)
	return nil
}
