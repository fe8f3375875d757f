// runtime.go exports Go runtime health gauges, sourced from the
// runtime/metrics package, for every /metrics surface in the system
// (gateway and router alike) as one more Series table, so the
// conformance tests in each package walk it like any other.
package obs

import (
	"io"
	"runtime/metrics"
)

// The runtime/metrics samples one scrape reads, by RuntimeSample index.
const (
	rtGoroutines = iota
	rtHeapObjects
	rtHeapUnused
	rtHeapFree
	rtHeapReleased
	rtGCCycles
	rtGCPause
	rtSamples
)

var runtimeSampleNames = [rtSamples]string{
	rtGoroutines:   "/sched/goroutines:goroutines",
	rtHeapObjects:  "/memory/classes/heap/objects:bytes",
	rtHeapUnused:   "/memory/classes/heap/unused:bytes",
	rtHeapFree:     "/memory/classes/heap/free:bytes",
	rtHeapReleased: "/memory/classes/heap/released:bytes",
	rtGCCycles:     "/gc/cycles/total:gc-cycles",
	rtGCPause:      "/cpu/classes/gc/pause:cpu-seconds",
}

// RuntimeSample is one reading of the runtime/metrics samples above.
// Samples the running toolchain does not support read as zero, so the
// exposition shape is stable across Go versions.
type RuntimeSample [rtSamples]float64

// RuntimeSeries is the runtime gauge set every /metrics endpoint carries,
// named under the given component prefix ("faasbatch", "faasrouter").
func RuntimeSeries(prefix string) []Series[RuntimeSample] {
	at := func(i int) func(*RuntimeSample) int64 {
		return func(s *RuntimeSample) int64 { return int64(s[i]) }
	}
	return []Series[RuntimeSample]{
		{Name: prefix + "_goroutines", Kind: Gauge, Help: "Goroutines currently running.", Int: at(rtGoroutines)},
		{Name: prefix + "_heap_alloc_bytes", Kind: Gauge, Help: "Heap bytes occupied by live objects and unswept dead objects.", Int: at(rtHeapObjects)},
		{Name: prefix + "_heap_sys_bytes", Kind: Gauge, Help: "Heap bytes obtained from the OS (in use, unused, free and released).",
			Int: func(s *RuntimeSample) int64 {
				return int64(s[rtHeapObjects] + s[rtHeapUnused] + s[rtHeapFree] + s[rtHeapReleased])
			}},
		{Name: prefix + "_gc_cycles_total", Kind: Counter, Help: "Completed GC cycles.", Int: at(rtGCCycles)},
		{Name: prefix + "_gc_pause_total_seconds", Kind: Counter, Help: "Estimated total CPU-seconds spent in GC stop-the-world pauses.",
			Float: func(s *RuntimeSample) float64 { return s[rtGCPause] }},
	}
}

// WriteRuntimeGauges samples the runtime once and emits RuntimeSeries in
// Prometheus text form under the given component prefix.
func WriteRuntimeGauges(w io.Writer, prefix string) {
	var samples [rtSamples]metrics.Sample
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var snap RuntimeSample
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			snap[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			snap[i] = s.Value.Float64()
		}
	}
	WriteSeries(w, RuntimeSeries(prefix), &snap)
}
