package scenario

import (
	"slices"
	"testing"
	"testing/quick"
)

// summarizeBySort is summarize as a sort computes it: the reference the
// selection must match.
func summarizeBySort(micros []int64) LatencySummary {
	s := slices.Clone(micros)
	slices.Sort(s)
	var sum int64
	for _, v := range s {
		sum += v
	}
	at := func(q float64) int64 { return s[int(q*float64(len(s)-1))] }
	return LatencySummary{
		P50Micros:  at(0.50),
		P90Micros:  at(0.90),
		P99Micros:  at(0.99),
		MaxMicros:  s[len(s)-1],
		MeanMicros: sum / int64(len(s)),
	}
}

// TestSummarizeMatchesSort: selecting the quantiles in place gives the
// summary sorting gave, and only reorders the samples — on every input of
// one to three samples over three values, and on random inputs of up to a
// few thousand samples shaped wide, duplicate-heavy, ascending,
// descending, organ-pipe and constant.
func TestSummarizeMatchesSort(t *testing.T) {
	check := func(xs []int64) bool {
		t.Helper()
		want := summarizeBySort(xs)
		got := slices.Clone(xs)
		if s := summarize(got); s != want {
			t.Errorf("summarize(%d samples) = %+v, want %+v", len(xs), s, want)
			return false
		}
		slices.Sort(got)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		if !slices.Equal(got, sorted) {
			t.Errorf("summarize(%v) changed the samples, not just their order", xs)
			return false
		}
		return true
	}
	if got := summarize(nil); got != (LatencySummary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", got)
	}
	for n := 1; n <= 3; n++ {
		xs := make([]int64, n)
		for code := 0; code < 27; code++ {
			for i, c := 0, code; i < n; i, c = i+1, c/3 {
				xs[i] = int64(c % 3)
			}
			check(xs)
		}
	}
	shaped := func(raw []int16, shape, reps uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var xs []int64
		for r := 0; r <= int(reps)%64; r++ {
			for _, v := range raw {
				xs = append(xs, int64(v))
			}
		}
		switch shape % 6 {
		case 1:
			for i := range xs {
				xs[i] &= 3
			}
		case 2:
			slices.Sort(xs)
		case 3:
			slices.Sort(xs)
			slices.Reverse(xs)
		case 4:
			for i := range xs {
				xs[i] = int64(min(i, len(xs)-i))
			}
		case 5:
			for i := range xs {
				xs[i] = 7
			}
		}
		return check(xs)
	}
	if err := quick.Check(shaped, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
