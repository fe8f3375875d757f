package main

import (
	"fmt"
	"math/rand"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
)

// httpClients is the closed-loop client count of the HTTP workloads: one
// per core of the two-core box, each on its own keep-alive connection.
const httpClients = 2

// httpRig is a stack with its clients connected and warmed.
type httpRig struct {
	st      *stack
	clients []*httpClient
	routed  bool
}

// newHTTPRig builds the workload's stack, connects the clients and has
// each send warmRequests requests, so connections, pools and containers
// exist before anything is measured.
func newHTTPRig(workload string, reqs []request) (*httpRig, error) {
	st, err := newStack(workload)
	if err != nil {
		return nil, err
	}
	r := &httpRig{st: st, routed: st.router != nil}
	for c := 0; c < httpClients; c++ {
		r.clients = append(r.clients, newHTTPClient(st.url))
	}
	err = eachClient(httpClients, func(c int) error {
		for i := 0; i < warmRequests; i++ {
			if !r.send(c, &reqs[(c*warmRequests+i)%len(reqs)]) {
				return fmt.Errorf("%s warm-up: client %d request %d failed", workload, c, i)
			}
		}
		return nil
	})
	if err != nil {
		_ = r.close()
		return nil, err
	}
	return r, nil
}

// send posts one request on client c and checks the reply.
func (r *httpRig) send(c int, q *request) bool {
	cl := r.clients[c]
	if !cl.post(q.body) {
		return false
	}
	return replyOK(cl.buf.Bytes(), q.payload, r.routed)
}

func (r *httpRig) close() error {
	for _, cl := range r.clients {
		cl.close()
	}
	return r.st.close()
}

// check closes the rig and verifies the conservation identities.
func (r *httpRig) check() error {
	var replies int64
	for _, cl := range r.clients {
		replies += cl.replies
	}
	if err := r.close(); err != nil {
		return err
	}
	return r.st.conserved(replies)
}

// pickers returns one seeded request-pick stream per client, decorrelated
// from each other and from the request generator's stream.
func pickers(seed int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
	}
	return rngs
}

// runHTTP is the end-to-end pass of gateway_warm, routed_hash and
// routed_pull: two closed-loop clients over loopback HTTP.
func runHTTP(workload string, o options) (*e2e, error) {
	reqs := genRequests(o.seed, 4096, echoFnNames())
	rig, setup, reps, err := timeSetup(o,
		func() (*httpRig, error) { return newHTTPRig(workload, reqs) },
		(*httpRig).close)
	if err != nil {
		return nil, err
	}
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pc.close()
	rngs := pickers(o.seed, httpClients)
	op := func(c, i int) bool { return rig.send(c, &reqs[rngs[c].Intn(len(reqs))]) }
	if _, err := closedLoop(httpClients, o.warm(), nil, op); err != nil {
		return nil, err
	}
	out, err := closedLoop(httpClients, o.window(), pc, op)
	if err != nil {
		return nil, err
	}
	res := &e2e{setupS: setup, setupReps: reps}
	res.fromLoop(&out, o.beyond())
	res.problem(rig.check())
	return res, nil
}

// httpTraceEvery thins the traced slice's client spans to one request in
// this many, which keeps the trace file readable.
const httpTraceEvery = 16

// sliceHTTP is the short slice of an HTTP workload the traced pass runs.
// With a tracer it records a client span for one request in
// httpTraceEvery; without one it is the plain loop, the overhead
// baseline. The worker's latency decomposition is not read here: the
// wire truncates it to whole microseconds, coarser than the warm
// platform path it would describe.
func sliceHTTP(workload string, o options, tr *obs.Tracer) (*sliceOut, error) {
	reqs := genRequests(o.seed, 4096, echoFnNames())
	rig, err := newHTTPRig(workload, reqs)
	if err != nil {
		return nil, err
	}
	rngs := pickers(o.seed, httpClients)
	out, err := closedLoop(httpClients, o.sliceWindow(), nil, func(c, i int) bool {
		q := &reqs[rngs[c].Intn(len(reqs))]
		if tr == nil || i%httpTraceEvery != 0 {
			return rig.send(c, q)
		}
		t0 := tr.Now()
		ok := rig.send(c, q)
		span(tr, uint64(c)<<32|uint64(i+1), spanClient, "", q.fn, t0, tr.Now())
		return ok
	})
	if err != nil {
		return nil, err
	}
	so := newSliceOut(&out, o)
	var stats platform.Stats
	for _, p := range rig.st.platforms {
		addStats(&stats, p.Stats())
	}
	platformCounters(so.vals, stats)
	if rt := rig.st.router; rt != nil {
		rs := rt.Stats()
		ps := rt.Policy().Stats()
		so.vals["router.forwarded"] = float64(rs.Forwarded)
		so.vals["router.retries"] = float64(rs.Retries)
		so.vals["router.forward_imbalance"] = rt.ForwardImbalance()
		so.vals["pullsched.granted"] = float64(ps.Granted)
		so.vals["pullsched.requeues"] = float64(ps.Requeues)
		so.vals["pullsched.shed"] = float64(ps.Shed)
	}
	so.problem(rig.check())
	return so, nil
}
