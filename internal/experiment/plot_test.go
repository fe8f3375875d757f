package experiment

import (
	"strings"
	"testing"
	"time"
)

func cdfOf(vals ...time.Duration) CDF { return NewCDF(vals) }

func TestPlotRenderBasics(t *testing.T) {
	p := NewPlot("latency CDF", 40, 10)
	p.Add("fast", cdfOf(10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond))
	p.Add("slow", cdfOf(time.Second, 2*time.Second, 4*time.Second))
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"latency CDF", "* fast", "o slow", "1.00", "0.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Both markers appear in the grid.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("markers missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// title + 10 grid rows + axis + labels + legend + trailing empty.
	if len(lines) != 15 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestPlotEmptyFails(t *testing.T) {
	p := NewPlot("empty", 10, 5)
	if err := p.Render(&strings.Builder{}); err == nil {
		t.Fatal("empty plot rendered")
	}
}

func TestPlotDefaultsAndMarkerCycling(t *testing.T) {
	p := NewPlot("", 0, 0)
	if p.width != 64 || p.height != 16 {
		t.Fatalf("defaults = %dx%d", p.width, p.height)
	}
	for i := 0; i < len(plotMarkers)+2; i++ {
		p.Add("s", cdfOf(time.Millisecond))
	}
	if p.series[len(plotMarkers)].marker != p.series[0].marker {
		t.Fatal("markers must cycle")
	}
}

func TestPlotHandlesZeroValues(t *testing.T) {
	p := NewPlot("zeros", 20, 5)
	p.Add("zeroish", cdfOf(0, 0, time.Millisecond))
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatalf("Render with zeros: %v", err)
	}
}

func TestPlotFasterCurveSitsLeft(t *testing.T) {
	// The fast series must reach fraction 1.0 at a smaller x than the
	// slow series: in the top grid row, the fast marker's first column
	// must be left of the slow marker's first column.
	p := NewPlot("", 60, 12)
	p.Add("fast", cdfOf(5*time.Millisecond, 6*time.Millisecond, 7*time.Millisecond))
	p.Add("slow", cdfOf(3*time.Second, 4*time.Second, 5*time.Second))
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	lines := strings.Split(b.String(), "\n")
	top := lines[0] // no title
	fastAt := strings.IndexByte(top, '*')
	slowAt := strings.IndexByte(top, 'o')
	if fastAt < 0 || slowAt < 0 {
		t.Fatalf("top row missing markers: %q", top)
	}
	if fastAt >= slowAt {
		t.Fatalf("fast series (col %d) not left of slow (col %d)", fastAt, slowAt)
	}
}

func TestPlotCDFs(t *testing.T) {
	cdfs := map[string]CDF{
		"a": cdfOf(time.Millisecond),
		"b": cdfOf(time.Second),
	}
	var b strings.Builder
	if err := PlotCDFs(&b, "t", []string{"a", "b"}, cdfs); err != nil {
		t.Fatalf("PlotCDFs: %v", err)
	}
	if err := PlotCDFs(&strings.Builder{}, "t", []string{"missing"}, cdfs); err == nil {
		t.Fatal("missing series accepted")
	}
	// Empty names: sorted map order.
	if err := PlotCDFs(&b, "t", nil, cdfs); err != nil {
		t.Fatalf("PlotCDFs(nil names): %v", err)
	}
}

func TestCompactDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500us",
		5 * time.Millisecond:    "5ms",
		1500 * time.Millisecond: "2s",
		3 * time.Minute:         "3m",
	}
	for d, want := range cases {
		if got := compactDuration(d); got != want {
			t.Errorf("compactDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

// failingWriter errors after n bytes to exercise render error paths.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFull
	}
	take := len(p)
	if take > f.n {
		take = f.n
	}
	f.n -= take
	if take < len(p) {
		return take, errFull
	}
	return take, nil
}

var errFull = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "disk full" }

func TestPlotRenderWriteError(t *testing.T) {
	p := NewPlot("t", 10, 5)
	p.Add("s", cdfOf(time.Millisecond))
	if err := p.Render(&failingWriter{n: 3}); err == nil {
		t.Fatal("failing writer accepted")
	}
}

func TestTableRenderWriteError(t *testing.T) {
	tbl := NewTable("t", "a")
	tbl.AddRow("x")
	if err := tbl.Render(&failingWriter{n: 1}); err == nil {
		t.Fatal("failing writer accepted")
	}
}
