package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the q-quantile of sorted by nearest rank. A
// percentile is only a number when at least beyond samples lie above it;
// with fewer the tail is one or two outliers, and the caller gets an
// error instead.
func percentile(sorted []int64, q float64, beyond int) (int64, error) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < beyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", q*100, n, beyond)
	}
	return sorted[idx], nil
}

// median returns the middle of vs (mean of the two middles when even).
// It sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// The reference box has two paces. In one, a system call and the kernel
// path behind it cost half as much again as in the other (gateway_warm's
// median is 56 µs or 90 µs); the host flips between them for anything from
// a tenth of a second to minutes, and a whole-window number then says
// which pace the host was in for most of the run, not what the program
// costs: ten runs spread by 25 to 50 % of their median, more than the
// largest bound the benchmark may declare. A pacer tells the two apart
// without looking at the program: it times a fixed burst of one-byte
// writes and reads on a pipe, which takes 0.2 ms at one pace and 0.3 ms
// at the other. The HTTP workloads' measured window is cut into laps
// with a pacing before each and after the last, and only the laps the
// box ran at its fast pace on both sides are measured. Which laps count
// is decided by the pipe, never by how the program did in them, so a
// pause, a collection or a lock convoy of the program's own counts in
// full.
const (
	lapLen = 100 * time.Millisecond
	// A pacing is the fastest of paceBursts bursts of paceTrips round
	// trips: one burst alone jitters by a tenth.
	paceBursts = 4
	paceTrips  = 250
	// calmFactor is how far above the run's fastest pacing a pacing may be
	// and still count as the fast pace. The two paces are 1.5 apart.
	calmFactor = 1.15
)

// pacer measures the pace of the box.
type pacer struct {
	r, w *os.File
	buf  [1]byte
}

func newPacer() (*pacer, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	return &pacer{r: r, w: w}, nil
}

func (p *pacer) close() {
	_ = p.r.Close() // nothing was left to flush
	_ = p.w.Close()
}

// pace times paceTrips writes and reads of one byte, fastest of
// paceBursts.
func (p *pacer) pace() (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < paceBursts; i++ {
		start := time.Now()
		for j := 0; j < paceTrips; j++ {
			if _, err := p.w.Write(p.buf[:]); err != nil {
				return 0, fmt.Errorf("pacing: %w", err)
			}
			if _, err := p.r.Read(p.buf[:]); err != nil {
				return 0, fmt.Errorf("pacing: %w", err)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// lane is one client of a closed loop.
type lane struct {
	lat  []int64 // ok operations' latencies in completion order
	cuts []int   // len(lat) at the start of each lap
	next int     // index of the client's next operation
}

// loopOut is one closed-loop run.
type loopOut struct {
	ok, failed int64 // operations of the whole window
	mallocs    uint64
	laps, calm int           // laps run, and measured
	wall       time.Duration // of the measured laps
	lat        []int64       // ok latencies of the measured laps, sorted
}

// rate is the measured laps' ok operations per second.
func (o *loopOut) rate() float64 { return float64(len(o.lat)) / o.wall.Seconds() }

// closedLoop runs clients goroutines that each call op back to back for
// dur: a client's next operation starts only when its previous one
// returned. op reports whether the operation succeeded and its output
// checked out; failed operations are counted, not timed. Without a pacer
// the whole window is measured. With one it is cut into laps of lapLen,
// and those the box ran at its fast pace are measured (all of them, if
// none qualifies).
func closedLoop(clients int, dur time.Duration, pc *pacer, op func(client, i int) bool) (loopOut, error) {
	out := loopOut{laps: 1}
	if pc != nil && dur > lapLen {
		out.laps = int(dur / lapLen)
	}
	lanes := make([]lane, clients)
	for c := range lanes {
		lanes[c].lat = make([]int64, 0, 1<<14)
	}
	paces := make([]time.Duration, out.laps+1)
	walls := make([]time.Duration, out.laps)
	var failed atomic.Int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k <= out.laps; k++ {
		if pc != nil {
			var err error
			if paces[k], err = pc.pace(); err != nil {
				return out, err
			}
		}
		if k < out.laps {
			walls[k] = runLap(lanes, dur/time.Duration(out.laps), &failed, op)
		}
	}
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.failed = failed.Load()
	for c := range lanes {
		out.ok += int64(len(lanes[c].lat))
		lanes[c].cuts = append(lanes[c].cuts, len(lanes[c].lat))
	}
	calm := calmLaps(paces)
	for k, isCalm := range calm {
		if !isCalm {
			continue
		}
		out.calm++
		out.wall += walls[k]
		for c := range lanes {
			out.lat = append(out.lat, lanes[c].lat[lanes[c].cuts[k]:lanes[c].cuts[k+1]]...)
		}
	}
	slices.Sort(out.lat)
	return out, nil
}

// runLap runs every lane's client for dur and returns the wall time.
func runLap(lanes []lane, dur time.Duration, failed *atomic.Int64, op func(client, i int) bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := range lanes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ln := &lanes[c]
			ln.cuts = append(ln.cuts, len(ln.lat))
			for {
				t0 := time.Since(start)
				if t0 >= dur {
					return
				}
				if op(c, ln.next) {
					ln.lat = append(ln.lat, int64(time.Since(start)-t0))
				} else {
					failed.Add(1)
				}
				ln.next++
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// calmLaps marks the laps whose pacings, before and after, are both within
// calmFactor of the fastest pacing of the run. paces holds one more entry
// than there are laps. If no lap qualifies, all are marked.
func calmLaps(paces []time.Duration) []bool {
	limit := time.Duration(float64(slices.Min(paces)) * calmFactor)
	calm := make([]bool, len(paces)-1)
	some := false
	for k := range calm {
		calm[k] = paces[k] <= limit && paces[k+1] <= limit
		some = some || calm[k]
	}
	if !some {
		for k := range calm {
			calm[k] = true
		}
	}
	return calm
}
