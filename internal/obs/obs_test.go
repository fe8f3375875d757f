package obs

import (
	"testing"
	"time"
)

func TestBreakdownTotalIsSumOfComponents(t *testing.T) {
	b := Breakdown{
		Sched:     10 * time.Millisecond,
		ColdStart: 500 * time.Millisecond,
		Queue:     30 * time.Millisecond,
		Exec:      200 * time.Millisecond,
	}
	if got, want := b.Total(), 740*time.Millisecond; got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range b.Parts() {
		sum += d
	}
	if sum != b.Total() {
		t.Fatalf("Parts sum to %v, Total is %v", sum, b.Total())
	}
	if got := b.Parts()[1]; got != b.ColdStart || DecompositionSpans[1] != SpanColdStart {
		t.Fatalf("Parts()[1] = %v under span %q, want the cold start %v", got, DecompositionSpans[1], b.ColdStart)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{4, 4}, 1},
		{[]int{6, 2}, 1.5},  // mean 4, max 6
		{[]int{9, 0, 0}, 3}, // one node hogs everything
	}
	for _, c := range cases {
		if got := Imbalance(c.counts); got != c.want {
			t.Errorf("Imbalance(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}
