package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
)

// batch_saturate: 256 callers parked in the synchronous Platform.Invoke,
// 32 to each of 8 functions, with MaxGroupSize 32 — so a window closes
// the moment a function's 32 callers are all waiting, and the grouped
// path (window close, group to container, inline-parallel expansion,
// multiplexer hit) runs flat out with no HTTP or router around it.
const (
	saturateCallers = 256
	saturateGroup   = 32
	// saturateTraceEvery thins the traced slice's spans: at several
	// hundred thousand invocations a second, one span set per request
	// would only measure the tracer's lock.
	saturateTraceEvery = 256
)

func saturateFns() []string {
	fns := make([]string, saturateCallers/saturateGroup)
	for i := range fns {
		fns[i] = fmt.Sprintf("sat-%d", i)
	}
	return fns
}

// sharedClient stands for the storage client every invocation of a
// container shares through the Resource Multiplexer.
type sharedClient struct{}

// multiplexHit is the saturate handler: one multiplexer lookup that hits
// after the container's first invocation, then echo.
func multiplexHit(ctx context.Context, inv *platform.Invocation) (any, error) {
	_, _, err := inv.Resources.GetContext(ctx, "storage.client", "shared", func() (any, int64, error) {
		return &sharedClient{}, 1 << 20, nil
	})
	if err != nil {
		return nil, err
	}
	return json.RawMessage(inv.Payload), nil
}

// saturateRig is the platform with every container warm.
type saturateRig struct {
	p    *platform.Platform
	fns  []string
	reqs []request
}

func newSaturateRig(reqs []request) (*saturateRig, error) {
	fns := saturateFns()
	p, err := newPlatform(platform.Config{
		Mode:             platform.ModeBatch,
		AdaptiveDispatch: true,
		MaxGroupSize:     saturateGroup,
		DispatchInterval: 20 * time.Millisecond,
		KeepAlive:        time.Minute,
		Multiplex:        true,
	}, fns, multiplexHit)
	if err != nil {
		return nil, err
	}
	r := &saturateRig{p: p, fns: fns, reqs: reqs}
	err = eachClient(saturateCallers, func(c int) error {
		for i := 0; i < 16; i++ {
			if _, ok := r.invoke(c, i); !ok {
				return fmt.Errorf("batch_saturate warm-up: caller %d invocation %d failed", c, i)
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

// invoke is caller c's i-th invocation: its own function, a seeded
// payload, and the echo checked byte for byte.
func (r *saturateRig) invoke(c, i int) (platform.Result, bool) {
	q := &r.reqs[(c*7919+i)%len(r.reqs)]
	res, err := r.p.Invoke(context.Background(), r.fns[c%len(r.fns)], q.payload)
	if err != nil {
		return res, false
	}
	got, isRaw := res.Value.(json.RawMessage)
	return res, isRaw && bytes.Equal(got, q.payload)
}

func (r *saturateRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	return r.p.CloseContext(ctx)
}

// check closes the platform and verifies its accounting.
func (r *saturateRig) check() error {
	if err := r.close(); err != nil {
		return err
	}
	return conservedPlatform(r.p)
}

func runSaturate(o options) (*e2e, error) {
	reqs := genRequests(o.seed, 4096, saturateFns())
	rig, setup, reps, err := timeSetup(o,
		func() (*saturateRig, error) { return newSaturateRig(reqs) },
		(*saturateRig).close)
	if err != nil {
		return nil, err
	}
	op := func(c, i int) bool { _, ok := rig.invoke(c, i); return ok }
	if _, err := closedLoop(saturateCallers, o.warm(), nil, op); err != nil {
		return nil, err
	}
	out, err := closedLoop(saturateCallers, o.window(), nil, op)
	if err != nil {
		return nil, err
	}
	res := &e2e{setupS: setup, setupReps: reps}
	res.fromLoop(&out, o.beyond())
	if s := rig.p.Stats(); s.Groups > 0 && o.measuring() {
		// The throughput is only comparable between commits while the
		// groups are full.
		if avg := float64(s.Invocations) / float64(s.Groups); avg < saturateGroup*0.95 {
			res.problem(fmt.Errorf("batch_saturate: average group size %.2f, want %d", avg, saturateGroup))
		}
	}
	res.problem(rig.check())
	return res, nil
}

func sliceSaturate(o options, tr *obs.Tracer) (*sliceOut, error) {
	reqs := genRequests(o.seed, 4096, saturateFns())
	rig, err := newSaturateRig(reqs)
	if err != nil {
		return nil, err
	}
	shares := make([]latencyShares, saturateCallers)
	out, err := closedLoop(saturateCallers, o.sliceWindow(), nil, func(c, i int) bool {
		if tr == nil {
			_, ok := rig.invoke(c, i)
			return ok
		}
		t0 := tr.Now()
		res, ok := rig.invoke(c, i)
		t1 := tr.Now()
		p := partsOf(res)
		shares[c].add(t1-t0, p)
		if ok && i%saturateTraceEvery == 0 {
			recordInvocation(tr, uint64(c)<<32|uint64(i+1), rig.fns[c%len(rig.fns)], t0, t1, p)
		}
		return ok
	})
	if err != nil {
		return nil, err
	}
	so := newSliceOut(&out, o)
	var sum latencyShares
	for _, s := range shares {
		sum.merge(s)
	}
	sum.into(so.vals)
	platformCounters(so.vals, rig.p.Stats())
	so.problem(rig.check())
	return so, nil
}
