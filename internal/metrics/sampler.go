package metrics

import (
	"fmt"
	"time"

	"faasbatch/internal/sim"
)

// Sample is one periodic observation of worker-node resource state,
// mirroring the paper's once-per-second host sampling (§V-B).
type Sample struct {
	// T is the virtual time of the observation.
	T sim.Time
	// MemBytes is the node memory in use.
	MemBytes int64
	// Containers is the number of live (booting, idle or busy) containers.
	Containers int
	// BusyCoreSeconds is the cumulative CPU busy integral at T.
	BusyCoreSeconds float64
}

// Probe observes current node state for the sampler.
type Probe func(t sim.Time) Sample

// Sampler records node resource samples at a fixed virtual-time period.
type Sampler struct {
	ticker  *sim.Ticker
	probe   Probe
	samples []Sample
}

// StartSampler begins sampling with the given period. The first sample is
// taken immediately (at the current virtual time).
func StartSampler(eng *sim.Engine, period time.Duration, probe Probe) (*Sampler, error) {
	if probe == nil {
		return nil, fmt.Errorf("metrics: sampler probe must not be nil")
	}
	s := &Sampler{probe: probe}
	s.samples = append(s.samples, probe(eng.Now()))
	t, err := sim.NewTicker(eng, period, func(now sim.Time) {
		s.samples = append(s.samples, s.probe(now))
	})
	if err != nil {
		return nil, fmt.Errorf("metrics: start sampler: %w", err)
	}
	s.ticker = t
	return s, nil
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.ticker.Stop() }

// Samples returns the recorded samples (shared slice; callers must not
// mutate it).
func (s *Sampler) Samples() []Sample { return s.samples }

// AvgMemBytes reports the time-averaged memory usage over the samples.
func (s *Sampler) AvgMemBytes() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, sm := range s.samples {
		sum += float64(sm.MemBytes)
	}
	return sum / float64(len(s.samples))
}

// PeakMemBytes reports the maximum sampled memory usage.
func (s *Sampler) PeakMemBytes() int64 {
	var peak int64
	for _, sm := range s.samples {
		if sm.MemBytes > peak {
			peak = sm.MemBytes
		}
	}
	return peak
}

// MiB expresses a byte count in mebibytes.
func MiB(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// GiB expresses a byte count in gibibytes.
func GiB(bytes int64) float64 { return float64(bytes) / (1 << 30) }
