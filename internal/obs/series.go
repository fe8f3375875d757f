// series.go is the one way a plain number leaves a process: a Series row
// names it for /metrics (name, kind, help) and for /stats (JSON key) and
// reads it from a snapshot taken once per scrape. Every counter and
// gauge table in the gateway and the router is a slice of this type, and
// the two writers below are the only code that formats one. Histograms
// (hist.go) and the SLO burn gauges (internal/slo) are families with
// their own shape and stay apart.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Series kinds: the Prometheus TYPE word.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Series declares one exported number over a snapshot type S. A row with
// an empty Name stays off /metrics, one with an empty Key stays off
// /stats; exactly one of Int and Float is set. Integer rows print as
// plain integers on both surfaces; Float rows print %g on /metrics and
// the encoding/json float form on /stats.
type Series[S any] struct {
	Name  string
	Kind  string
	Help  string
	Key   string
	Int   func(*S) int64
	Float func(*S) float64
}

// appendValue renders the row's value over snap in Prometheus form.
func (s *Series[S]) appendValue(dst []byte, snap *S) []byte {
	if s.Int != nil {
		return strconv.AppendInt(dst, s.Int(snap), 10)
	}
	return fmt.Appendf(dst, "%g", s.Float(snap))
}

// WriteSeries renders every named row over one snapshot in the
// Prometheus text format: HELP, TYPE and one unlabeled sample each.
func WriteSeries[S any](w io.Writer, rows []Series[S], snap *S) {
	var buf []byte
	for i := range rows {
		if s := &rows[i]; s.Name != "" {
			buf = fmt.Appendf(buf[:0], "# HELP %s %s\n# TYPE %s %s\n%s ", s.Name, s.Help, s.Name, s.Kind, s.Name)
			buf = append(s.appendValue(buf, snap), '\n')
			_, _ = w.Write(buf) // an exposition cut short is the scraper's to report
		}
	}
}

// WriteLabeledSeries renders every named row as one family with one
// sample per snapshot, labeled label="<labelOf(snapshot)>".
func WriteLabeledSeries[S any](w io.Writer, rows []Series[S], snaps []S, label string, labelOf func(*S) string) {
	var buf []byte
	for i := range rows {
		s := &rows[i]
		if s.Name == "" {
			continue
		}
		buf = fmt.Appendf(buf[:0], "# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Kind)
		for j := range snaps {
			buf = fmt.Appendf(buf, "%s{%s=%q} ", s.Name, label, labelOf(&snaps[j]))
			buf = append(s.appendValue(buf, &snaps[j]), '\n')
		}
		_, _ = w.Write(buf)
	}
}

// AppendJSONFields appends every keyed row as a "key":value member of the
// JSON object being built in dst, comma-separated from whatever member
// precedes it, so a document composes from several tables and hand-placed
// members in any order. Values match encoding/json byte for byte.
func AppendJSONFields[S any](dst []byte, rows []Series[S], snap *S) []byte {
	for i := range rows {
		s := &rows[i]
		if s.Key == "" {
			continue
		}
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), s.Key...), '"', ':')
		if s.Int != nil {
			dst = strconv.AppendInt(dst, s.Int(snap), 10)
		} else if f, err := json.Marshal(s.Float(snap)); err == nil {
			dst = append(dst, f...)
		} else {
			dst = append(dst, "null"...) // NaN or Inf: no JSON number says it
		}
	}
	return dst
}
