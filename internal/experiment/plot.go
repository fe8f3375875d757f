package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Plot renders multiple CDF curves as an ASCII chart with a logarithmic
// x-axis — the shape the paper's latency figures use. Each series is
// drawn with its own marker; overlapping cells show the later series.
type Plot struct {
	title  string
	series []plotSeries
	width  int
	height int
}

// plotSeries is one named curve.
type plotSeries struct {
	name   string
	marker byte
	cdf    CDF
}

// plotMarkers are assigned to series in order.
var plotMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// NewPlot creates an empty plot with the given title and grid size.
// Non-positive dimensions fall back to 64x16.
func NewPlot(title string, width, height int) *Plot {
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	return &Plot{title: title, width: width, height: height}
}

// Add appends a named CDF curve. Adding more curves than there are
// distinct markers reuses markers cyclically.
func (p *Plot) Add(name string, cdf CDF) {
	marker := plotMarkers[len(p.series)%len(plotMarkers)]
	p.series = append(p.series, plotSeries{name: name, marker: marker, cdf: cdf})
}

// xRange computes the global non-zero value range across series.
func (p *Plot) xRange() (lo, hi time.Duration) {
	for _, s := range p.series {
		if s.cdf.Len() == 0 {
			continue
		}
		minV, maxV := s.cdf.P(0), s.cdf.P(1)
		if minV <= 0 {
			minV = time.Millisecond // log axis floor for zero latencies
		}
		if lo == 0 || minV < lo {
			lo = minV
		}
		if maxV > hi {
			hi = maxV
		}
	}
	if lo == 0 {
		lo = time.Millisecond
	}
	if hi <= lo {
		hi = lo * 10
	}
	return lo, hi
}

// Render writes the chart to w.
func (p *Plot) Render(w io.Writer) error {
	if len(p.series) == 0 {
		return fmt.Errorf("experiment: plot %q has no series", p.title)
	}
	lo, hi := p.xRange()
	logLo, logHi := math.Log10(float64(lo)), math.Log10(float64(hi))
	grid := make([][]byte, p.height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", p.width))
	}
	// Column x samples the CDF at its right edge, so the final column
	// evaluates the global maximum and every curve reaches 1.0 on-chart.
	for _, s := range p.series {
		if s.cdf.Len() == 0 {
			continue
		}
		for x := 0; x < p.width; x++ {
			exp := logLo + (float64(x)+1)/float64(p.width)*(logHi-logLo)
			v := time.Duration(math.Pow(10, exp))
			if x == p.width-1 {
				v = hi // avoid float round-down clipping the last column
			}
			frac := s.cdf.At(v)
			// Row 0 is the top (fraction 1.0).
			y := int((1 - frac) * float64(p.height-1))
			if y < 0 {
				y = 0
			}
			if y >= p.height {
				y = p.height - 1
			}
			grid[y][x] = s.marker
		}
	}

	var b strings.Builder
	if p.title != "" {
		b.WriteString(p.title)
		b.WriteByte('\n')
	}
	for i, row := range grid {
		frac := 1 - float64(i)/float64(p.height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", frac, string(row))
	}
	// X axis: log-spaced tick labels.
	b.WriteString("     +" + strings.Repeat("-", p.width) + "+\n")
	b.WriteString("      " + p.xAxisLabels(logLo, logHi) + "\n")
	legend := make([]string, 0, len(p.series))
	for _, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c %s", s.marker, s.name))
	}
	b.WriteString("      " + strings.Join(legend, "   ") + "\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("experiment: render plot: %w", err)
	}
	return nil
}

// xAxisLabels formats log-spaced duration labels under the axis.
func (p *Plot) xAxisLabels(logLo, logHi float64) string {
	const ticks = 4
	row := []byte(strings.Repeat(" ", p.width))
	for t := 0; t <= ticks; t++ {
		exp := logLo + float64(t)/ticks*(logHi-logLo)
		label := compactDuration(time.Duration(math.Pow(10, exp)))
		pos := int(float64(t) / ticks * float64(p.width-1))
		start := pos - len(label)/2
		if start < 0 {
			start = 0
		}
		if start+len(label) > p.width {
			start = p.width - len(label)
		}
		copy(row[start:], label)
	}
	return string(row)
}

// compactDuration renders a duration with one significant decimal at most.
func compactDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.0fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.0fs", math.Round(d.Seconds()))
	case d >= time.Millisecond:
		return fmt.Sprintf("%.0fms", math.Round(float64(d)/float64(time.Millisecond)))
	default:
		return fmt.Sprintf("%.0fus", math.Round(float64(d)/float64(time.Microsecond)))
	}
}

// PlotCDFs is a convenience wrapper: build and render one chart from
// named curves, sorted-stable in the given order.
func PlotCDFs(w io.Writer, title string, names []string, cdfs map[string]CDF) error {
	plot := NewPlot(title, 0, 0)
	ordered := append([]string(nil), names...)
	if len(ordered) == 0 {
		for name := range cdfs {
			ordered = append(ordered, name)
		}
		sort.Strings(ordered)
	}
	for _, name := range ordered {
		cdf, ok := cdfs[name]
		if !ok {
			return fmt.Errorf("experiment: plot series %q missing", name)
		}
		plot.Add(name, cdf)
	}
	return plot.Render(w)
}
