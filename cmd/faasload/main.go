// Command faasload replays a workload trace against a running faasgate
// over HTTP — the paper's client VM. It schedules each invocation at its
// trace offset (optionally time-compressed), collects the gateway's
// latency decompositions, and prints a percentile summary.
//
// Usage:
//
//	go run ./cmd/tracegen -kind cpu -n 200 -o cpu.csv
//	go run ./cmd/faasgate &
//	go run ./cmd/faasload -trace cpu.csv -url http://localhost:8080 -speedup 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"text/tabwriter"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faasload:", err)
		os.Exit(1)
	}
}

// loadResult is one completed request.
type loadResult struct {
	latency httpapi.Latency
	err     error
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("faasload", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8080", "gateway base URL")
	tracePath := fs.String("trace", "", "trace CSV (from cmd/tracegen)")
	speedup := fs.Float64("speedup", 1.0, "time compression factor (10 = replay 10x faster)")
	limit := fs.Int("n", 0, "cap the number of invocations (0 = whole trace)")
	maxFib := fs.Int("max-fib", 30, "cap fib N so real CPU work stays tractable")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	if *speedup <= 0 {
		return fmt.Errorf("speedup must be positive, got %v", *speedup)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	tr, err := trace.ReadCSV(f, *tracePath)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *limit > 0 {
		tr = tr.Head(*limit)
	}
	if tr.Len() == 0 {
		return fmt.Errorf("trace %s is empty", *tracePath)
	}

	client := &http.Client{Timeout: *timeout}
	results := make([]loadResult, tr.Len())
	var wg sync.WaitGroup
	start := time.Now()
	fmt.Fprintf(out, "replaying %d invocations against %s (speedup %.1fx) ...\n", tr.Len(), *url, *speedup)
	for i, inv := range tr.Invocations {
		i, inv := i, inv
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := time.Duration(float64(inv.Offset) / *speedup)
			if sleep := at - time.Since(start); sleep > 0 {
				time.Sleep(sleep)
			}
			results[i] = invokeOnce(client, *url, inv, *maxFib)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return summarise(out, results, elapsed)
}

// invokeOnce fires one gateway request for a trace invocation, mapping
// fib entries to the gateway's fib function and everything else to
// s3upload.
func invokeOnce(client *http.Client, baseURL string, inv trace.Invocation, maxFib int) loadResult {
	var req httpapi.InvokeRequest
	if inv.FibN > 0 {
		n := inv.FibN
		if n > maxFib {
			n = maxFib
		}
		req.Fn = "fib"
		req.Payload = json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))
	} else {
		req.Fn = "s3upload"
		req.Payload = json.RawMessage(fmt.Sprintf(`{"bucket":%q,"key":"obj"}`, inv.Fn))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return loadResult{err: fmt.Errorf("marshal: %w", err)}
	}
	resp, err := client.Post(baseURL+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		return loadResult{err: err}
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return loadResult{err: fmt.Errorf("status %d", resp.StatusCode)}
	}
	var out httpapi.InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return loadResult{err: fmt.Errorf("decode: %w", err)}
	}
	return loadResult{latency: out.Latency}
}

// summarise prints the latency percentile table and error count.
// Quantiles are nearest-rank over the sorted samples.
func summarise(out *os.File, results []loadResult, elapsed time.Duration) error {
	names := []string{"scheduling", "cold-start", "execution", "total"}
	samples := make([][]time.Duration, len(names))
	errors := 0
	for _, r := range results {
		if r.err != nil {
			errors++
			continue
		}
		l := r.latency
		for i, ms := range [...]float64{l.SchedMillis, l.ColdMillis, l.ExecMillis, l.TotalMillis} {
			samples[i] = append(samples[i], time.Duration(ms*float64(time.Millisecond)))
		}
	}
	ok := len(samples[0])
	fmt.Fprintf(out, "completed %d ok, %d errors in %v\n\n", ok, errors, elapsed.Round(time.Millisecond))
	if ok == 0 {
		return fmt.Errorf("no successful invocations (%d errors)", errors)
	}
	fmt.Fprintln(out, "gateway latency decomposition")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "component\tp50\tp90\tp99\tmax")
	for i, name := range names {
		vals := samples[i]
		slices.Sort(vals)
		fmt.Fprint(tw, name)
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			rank := max(int(math.Ceil(q*float64(ok))), 1)
			fmt.Fprintf(tw, "\t%v", vals[rank-1].Round(time.Millisecond))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
