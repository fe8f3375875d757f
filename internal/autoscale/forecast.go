package autoscale

import (
	"math"
	"sort"
	"time"

	"faasbatch/internal/policy"
)

// rateBounds buckets per-tick aggregate arrival rates, in
// invocations/second (the last bucket is implicit +Inf); the pre-warm
// floor reads a high quantile out of this histogram.
var rateBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histDecay is the per-tick multiplicative decay applied to the rate
// histogram so the pre-warm floor forgets ancient bursts: counts halve
// roughly every 34 ticks (0.98^34 ~ 0.5).
const histDecay = 0.98

// Hist is a fixed-bucket histogram with float counts so it can decay
// exponentially. Deterministic: no timestamps, no randomness.
type Hist struct {
	bounds []float64 // ascending upper bounds; implicit +Inf tail
	counts []float64 // len(bounds)+1
	total  float64
}

// NewHist builds a histogram over the given ascending upper bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]float64, len(bounds)+1)}
}

// Observe adds one observation.
func (h *Hist) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
}

// Decay multiplies every bucket by f in (0, 1].
func (h *Hist) Decay(f float64) {
	h.total = 0
	for i := range h.counts {
		h.counts[i] *= f
		h.total += h.counts[i]
	}
}

// Quantile returns the upper bound of the bucket where the cumulative
// count first reaches q*total (the +Inf tail reports the last finite
// bound). It reports 0 on an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.total <= 0 {
		return 0
	}
	target := q * h.total
	cum := 0.0
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// fnDemand is the per-function demand state.
type fnDemand struct {
	rate     *policy.EWMA // smoothed arrivals/second, updated per tick
	pending  int          // arrivals in the currently open tick bucket
	lastRate float64      // arrivals/second over the last closed tick
}

// Demand tracks per-function arrival demand: an EWMA over per-tick
// arrival rates plus a per-tick-rate histogram feeding the short-horizon
// forecaster. It is clock-agnostic (monotonic offsets) and deterministic;
// callers serialise access.
type Demand struct {
	alpha    float64
	fns      map[string]*fnDemand
	order    []string // sorted fn names: deterministic float summation
	rates    *Hist
	lastTick time.Duration // bucket origin; offsets start at 0 in both drivers
	lastSeen time.Duration
	anySeen  bool
}

// NewDemand builds a tracker with EWMA smoothing alpha.
func NewDemand(alpha float64) *Demand {
	return &Demand{
		alpha: alpha,
		fns:   make(map[string]*fnDemand),
		rates: NewHist(rateBounds),
	}
}

func (d *Demand) fn(fn string) *fnDemand {
	st, ok := d.fns[fn]
	if !ok {
		ew, err := policy.NewEWMA(d.alpha)
		if err != nil { // alpha validated by Config; defensive
			ew, _ = policy.NewEWMA(0.3)
		}
		st = &fnDemand{rate: ew}
		d.fns[fn] = st
		i := sort.SearchStrings(d.order, fn)
		d.order = append(d.order, "")
		copy(d.order[i+1:], d.order[i:])
		d.order[i] = fn
	}
	return st
}

// Observe records one arrival for fn at offset now.
func (d *Demand) Observe(fn string, now time.Duration) {
	d.fn(fn).pending++
	if !d.anySeen || now > d.lastSeen {
		d.lastSeen, d.anySeen = now, true
	}
}

// Advance closes the tick bucket [lastTick, now): per-function rates
// fold into the EWMAs and the aggregate rate lands in the rate
// histogram. Call once per evaluation tick, before Forecast.
func (d *Demand) Advance(now time.Duration) {
	dt := (now - d.lastTick).Seconds()
	if dt <= 0 {
		return
	}
	agg := 0.0
	for _, fn := range d.order {
		st := d.fns[fn]
		st.lastRate = float64(st.pending) / dt
		st.pending = 0
		st.rate.Observe(st.lastRate)
		agg += st.lastRate
	}
	d.rates.Decay(histDecay)
	// Zero-rate ticks are observations too: they pile weight into the
	// bottom bucket so a quiet spell actually walks the high quantile —
	// and with it the pre-warm floor — back down. Decay alone cannot
	// (it scales every bucket proportionally, leaving quantiles fixed).
	d.rates.Observe(agg)
	d.lastTick = now
}

// Forecast reports the short-horizon aggregate demand estimate in
// invocations/second: per function the max of the smoothed EWMA rate
// and the last tick's instantaneous rate (react up in one tick, decay
// smoothly), summed in sorted-name order so the float total is
// deterministic.
func (d *Demand) Forecast() float64 {
	total := 0.0
	for _, fn := range d.order {
		st := d.fns[fn]
		total += math.Max(st.rate.Value(), st.lastRate)
	}
	return total
}

// PeakRate reports the q-quantile of recent per-tick aggregate rates —
// the pre-warm floor's burst memory.
func (d *Demand) PeakRate(q float64) float64 { return d.rates.Quantile(q) }

// IdleFor reports how long the whole system has been idle at offset
// now (time since the last observed arrival; a very large value before
// any arrival).
func (d *Demand) IdleFor(now time.Duration) time.Duration {
	if !d.anySeen {
		return time.Duration(math.MaxInt64)
	}
	if now < d.lastSeen {
		return 0
	}
	return now - d.lastSeen
}

// Functions reports the tracked function count.
func (d *Demand) Functions() int { return len(d.fns) }
