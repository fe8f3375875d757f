package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// benchmarkFile is the declaration this program is checked against.
const benchmarkFile = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDecl `json:"end_to_end"`
	PerLayer []boundDecl `json:"per_layer"`
}

type boundDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// repeatCheck runs sets sets of end-to-end passes of the same code with
// the same seed and compares each later set with the first: a metric
// that moves between identical runs by more than the bound a regression
// is judged by cannot carry that bound. It prints the table and returns
// the exit code: 1 when a pair of sets disagrees beyond a bound or any
// operation failed.
func repeatCheck(selected []workload, o options, sets int, limit time.Duration) int {
	spec, err := readBenchmarkSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	results := make([]map[string]map[string]float64, sets)
	code := 0
	for s := range results {
		results[s] = map[string]map[string]float64{}
		for _, w := range selected {
			t := guard(w.name, limit)
			res, ok, err := endToEndPass(io.Discard, w, o)
			t.Stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: %v\n", s+1, w.name, err)
				return 1
			}
			if !ok {
				fmt.Printf("set %d %s: %d of %d failed, problems %q\n", s+1, w.name, res.failed, res.attempted, res.problems)
				code = 1
			}
			results[s][w.name] = res.metrics()
		}
	}
	fmt.Printf("%-15s %-16s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set N", "differ by", "bound")
	for _, w := range selected {
		for _, d := range spec.EndToEnd {
			first := results[0][w.name][d.Name]
			for s := 1; s < sets; s++ {
				later := results[s][w.name][d.Name]
				// Either direction counts: which set ran first is chance.
				diff := 0.0
				if first != 0 {
					diff = math.Abs(later-first) / first
				}
				verdict := ""
				if diff > d.Bound {
					verdict = "  EXCEEDS"
					code = 1
				}
				fmt.Printf("%-15s %-16s %14.6g %14.6g %8.2f%% %5.0f%%%s\n", w.name, d.Name, first, later, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	return code
}
