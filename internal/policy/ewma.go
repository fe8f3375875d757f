package policy

import "fmt"

// EWMA is an exponentially weighted moving average. Kraken's execution
// estimate, SFS's and the dispatch controller's inter-arrival gaps and
// the autoscaler's demand forecast all smooth with it.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA creates an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("policy: ewma alpha must be in (0, 1], got %v", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds a new observation into the average. The first observation
// primes the average directly.
func (e *EWMA) Observe(v float64) {
	if !e.primed {
		e.value = v
		e.primed = true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value reports the current average (0 before the first observation).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one observation was folded in.
func (e *EWMA) Primed() bool { return e.primed }

// Reset discards the history: the next Observe primes the average afresh.
// Callers use it when the observed process provably restarted (e.g. an
// arrival stream resuming after a long idle gap), where folding the gap
// in would let one stale outlier dominate the estimate for many samples.
func (e *EWMA) Reset() {
	e.value = 0
	e.primed = false
}
