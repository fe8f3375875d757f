package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
)

// This file implements the router's metrics-federation plane: the router
// scrapes every member worker's /metrics and /stats surfaces on demand
// and serves a cluster-wide roll-up on /cluster/metrics and
// /cluster/stats. Federation is exact where exactness is possible —
// counters and fixed-bucket histograms sum bucket-wise with no precision
// tricks — and attributed where it is not: gauges are re-emitted once
// per member under a worker label instead of being averaged into
// meaninglessness. A member that fails to answer is served from its last
// good snapshot (marked stale) so one crashed worker does not blank the
// fleet view.

// memberSnapshot is the last successful scrape of one worker.
type memberSnapshot struct {
	families []*obs.PromFamily
	stats    httpapi.StatsResponse
}

// memberView is one worker's contribution to a cluster view.
type memberView struct {
	worker string
	fresh  bool
	snap   memberSnapshot
}

// scrapeCluster scrapes every registered worker's /metrics and /stats
// concurrently, bounded per member by Config.ScrapeTimeout. Failed
// members fall back to their last good snapshot; members that never
// answered are omitted.
func (rt *Router) scrapeCluster(ctx context.Context) []memberView {
	specs := rt.reg.Specs()
	views := make([]memberView, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec WorkerSpec) {
			defer wg.Done()
			snap, err := rt.scrapeMember(ctx, spec)
			rt.ctr.scrapes.Add(1)
			if err != nil {
				rt.ctr.scrapeFailures.Add(1)
				rt.logger.Debug("member scrape failed", "worker", spec.ID, "err", err)
				rt.scrapeMu.Lock()
				last, ok := rt.lastScrape[spec.ID]
				rt.scrapeMu.Unlock()
				if ok {
					views[i] = memberView{worker: spec.ID, fresh: false, snap: last}
				}
				return
			}
			rt.scrapeMu.Lock()
			rt.lastScrape[spec.ID] = snap
			rt.scrapeMu.Unlock()
			views[i] = memberView{worker: spec.ID, fresh: true, snap: snap}
		}(i, spec)
	}
	wg.Wait()
	out := views[:0]
	for _, v := range views {
		if v.worker != "" {
			out = append(out, v)
		}
	}
	return out
}

// scrapeMember fetches one worker's /metrics exposition and /stats
// snapshot, both under one ScrapeTimeout.
func (rt *Router) scrapeMember(ctx context.Context, spec WorkerSpec) (memberSnapshot, error) {
	ep := rt.wire.endpoints[spec.ID]
	deadline := attemptDeadline(ctx, rt.cfg.ScrapeTimeout)
	var snap memberSnapshot
	err := scrapeGet(ctx, ep, deadline, "/metrics", func(body []byte) (err error) {
		snap.families, err = obs.ParsePrometheus(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return snap, err
	}
	err = scrapeGet(ctx, ep, deadline, "/stats", func(body []byte) error {
		return json.Unmarshal(body, &snap.stats)
	})
	return snap, err
}

// scrapeGet performs one federation GET and hands the body of a 200 to
// parse, which must keep no reference to it.
func scrapeGet(ctx context.Context, ep *endpoint, deadline time.Time, path string, parse func(body []byte) error) error {
	wc, status, err := ep.get(ctx, deadline, path)
	if err != nil {
		return fmt.Errorf("GET %s%s: %w", ep.id, path, err)
	}
	defer ep.put(wc)
	if status != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", ep.id, path, status)
	}
	if err := parse(wc.rbuf); err != nil {
		return fmt.Errorf("parse %s%s: %w", ep.id, path, err)
	}
	return nil
}

// clusterScrape is what one /cluster/metrics round learned about the
// scrape itself.
type clusterScrape struct {
	members, fresh, stale int
	scrapeFailures        int64
}

// clusterSeries are the faascluster_* meta-series describing the scrape.
var clusterSeries = []obs.Series[clusterScrape]{
	{Name: "faascluster_members", Kind: obs.Gauge, Help: "Workers registered with the router.", Int: func(c *clusterScrape) int64 { return int64(c.members) }},
	{Name: "faascluster_members_scraped", Kind: obs.Gauge, Help: "Workers that answered this scrape round.", Int: func(c *clusterScrape) int64 { return int64(c.fresh) }},
	{Name: "faascluster_members_stale", Kind: obs.Gauge, Help: "Workers served from their last good snapshot.", Int: func(c *clusterScrape) int64 { return int64(c.stale) }},
	{Name: "faascluster_scrape_failures_total", Kind: obs.Counter, Help: "Member scrapes that failed.", Int: func(c *clusterScrape) int64 { return c.scrapeFailures }},
}

// writeClusterMetrics renders the federated Prometheus exposition: the
// clusterSeries rows, the fleet gauges, then the members' series merged
// by obs.FederateMetrics.
func (rt *Router) writeClusterMetrics(ctx context.Context, w io.Writer) {
	views := rt.scrapeCluster(ctx)
	scrape := clusterScrape{members: len(rt.reg.Specs())}
	members := make([]obs.MemberMetrics, len(views))
	for i, v := range views {
		if v.fresh {
			scrape.fresh++
		}
		members[i] = obs.MemberMetrics{Worker: v.worker, Families: v.snap.families}
	}
	snap := rt.snapshot()
	scrape.stale, scrape.scrapeFailures = len(views)-scrape.fresh, snap.ScrapeFailures
	obs.WriteSeries(w, clusterSeries, &scrape)
	rt.writeFleetGauges(w, &snap)
	obs.FederateMetrics(w, members)
}

// clusterStats assembles the /cluster/stats reply.
func (rt *Router) clusterStats(ctx context.Context) httpapi.ClusterStatsResponse {
	views := rt.scrapeCluster(ctx)
	out := httpapi.ClusterStatsResponse{
		Router:  rt.appendStats(nil),
		Members: make([]httpapi.MemberStats, 0, len(views)),
	}
	for _, v := range views {
		out.Members = append(out.Members, httpapi.MemberStats{
			Worker: v.worker, Fresh: v.fresh, Stats: v.snap.stats,
		})
		sumStats(&out.Cluster, v.snap.stats)
	}
	return out
}

// sumStats adds src's numeric fields into dst field-wise, by reflection:
// a StatsResponse field added upstream is federated here automatically
// instead of silently reading zero in the cluster roll-up.
func sumStats(dst *httpapi.StatsResponse, src httpapi.StatsResponse) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src)
	for i := 0; i < sv.NumField(); i++ {
		switch sv.Field(i).Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			dv.Field(i).SetInt(dv.Field(i).Int() + sv.Field(i).Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
		case reflect.Float32, reflect.Float64:
			dv.Field(i).SetFloat(dv.Field(i).Float() + sv.Field(i).Float())
		}
	}
}
