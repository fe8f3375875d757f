package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"faasbatch/internal/obs"
	"faasbatch/internal/obs/obstest"
)

type sample struct {
	n int64
	f float64
}

var sampleSeries = []obs.Series[sample]{
	{Name: "t_count_total", Kind: obs.Counter, Help: "A count.", Key: "count", Int: func(s *sample) int64 { return s.n }},
	{Name: "t_ratio", Kind: obs.Gauge, Help: "A ratio.", Key: "ratio", Float: func(s *sample) float64 { return s.f }},
	{Key: "twice", Int: func(s *sample) int64 { return 2 * s.n }},
	{Name: "t_only_metrics", Kind: obs.Gauge, Help: "Off /stats.", Float: func(s *sample) float64 { return float64(s.n) }},
}

// TestSeriesWriters pins the two renderings of one table: integer rows
// print plain integers on both surfaces, float rows %g on /metrics and
// the encoding/json form on /stats, unnamed rows stay off /metrics and
// unkeyed rows off /stats, and JSON members chain onto whatever precedes.
func TestSeriesWriters(t *testing.T) {
	snap := sample{n: 1234567, f: 1234567.5}
	var prom bytes.Buffer
	obs.WriteSeries(&prom, sampleSeries, &snap)
	wantProm := "# HELP t_count_total A count.\n# TYPE t_count_total counter\nt_count_total 1234567\n" +
		"# HELP t_ratio A ratio.\n# TYPE t_ratio gauge\nt_ratio 1.2345675e+06\n" +
		"# HELP t_only_metrics Off /stats.\n# TYPE t_only_metrics gauge\nt_only_metrics 1.234567e+06\n"
	if prom.String() != wantProm {
		t.Errorf("WriteSeries:\n%s\nwant\n%s", prom.String(), wantProm)
	}
	doc := append(obs.AppendJSONFields([]byte(`{"first":true`), sampleSeries, &snap), '}')
	var viaStd struct {
		First bool    `json:"first"`
		Count int64   `json:"count"`
		Ratio float64 `json:"ratio"`
		Twice int64   `json:"twice"`
	}
	if err := json.Unmarshal(doc, &viaStd); err != nil {
		t.Fatalf("AppendJSONFields wrote invalid JSON %s: %v", doc, err)
	}
	std, _ := json.Marshal(viaStd)
	if string(std) != string(doc) {
		t.Errorf("AppendJSONFields = %s, encoding/json = %s", doc, std)
	}
	if got := string(append(obs.AppendJSONFields([]byte{'{'}, sampleSeries[1:2], &sample{f: math.NaN()}), '}')); got != `{"ratio":null}` {
		t.Errorf("NaN member = %s", got)
	}
	var labeled bytes.Buffer
	obs.WriteLabeledSeries(&labeled, sampleSeries[:1], []sample{{n: 1}, {n: 2}}, "worker", func(s *sample) string { return string(rune('a' + s.n)) })
	if want := "# HELP t_count_total A count.\n# TYPE t_count_total counter\nt_count_total{worker=\"b\"} 1\nt_count_total{worker=\"c\"} 2\n"; labeled.String() != want {
		t.Errorf("WriteLabeledSeries:\n%s\nwant\n%s", labeled.String(), want)
	}
}

// TestObservabilityDocSeries holds docs/OBSERVABILITY.md's runtime table
// to the RuntimeSeries declarations.
func TestObservabilityDocSeries(t *testing.T) {
	obstest.CheckDoc(t, "../../docs/OBSERVABILITY.md", "runtime", obstest.DocTable(obs.RuntimeSeries("<prefix>")))
}
