// Command faasbench regenerates every table and figure of the FaaSBatch
// evaluation (ICDCS 2023).
//
// Usage:
//
//	faasbench -list                 # list reproducible figures
//	faasbench -run fig11            # reproduce one figure
//	faasbench -run all              # reproduce everything
//	faasbench -run fig12 -scale 0.5 # run at half the paper's workload size
//	faasbench -run fig13 -seed 7    # change the deterministic seed
//
// All experiments run in virtual time on the discrete-event simulator; a
// full reproduction completes in seconds of wall-clock time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"faasbatch/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faasbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faasbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list reproducible figures")
	id := fs.String("run", "", "figure id to reproduce, or \"all\"")
	def := experiment.DefaultOptions()
	scale := fs.Float64("scale", def.Scale, "workload scale factor (1.0 = paper scale)")
	seed := fs.Int64("seed", def.Seed, "deterministic seed")
	outPath := fs.String("o", "", "also write the output to this file")
	summary := fs.String("summary", "", "emit a JSON per-policy summary for a workload (cpu or io) instead of tables")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace-event JSON file per experiment run into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %v", *scale)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("create trace dir: %w", err)
		}
		experiment.SetTraceDir(*traceDir)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *outPath, err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "faasbench: close:", cerr)
			}
		}()
		out = io.MultiWriter(os.Stdout, f)
	}

	if *summary != "" {
		summaries, err := experiment.SummarizeWorkload(*summary, experiment.Options{Scale: *scale, Seed: *seed})
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summaries); err != nil {
			return fmt.Errorf("encode summary: %w", err)
		}
		return nil
	}

	if *list || *id == "" {
		fmt.Println("Reproducible figures (use -run <id>):")
		for _, f := range experiment.Figures() {
			fmt.Printf("  %-9s %s\n", f.ID, f.Title)
		}
		return nil
	}

	opts := experiment.Options{Scale: *scale, Seed: *seed}
	if *id == "all" {
		for _, f := range experiment.Figures() {
			if err := runOne(out, f, opts); err != nil {
				return err
			}
		}
		return nil
	}
	f, ok := experiment.FigureByID(*id)
	if !ok {
		return fmt.Errorf("unknown figure %q (try -list)", *id)
	}
	return runOne(out, f, opts)
}

func runOne(w io.Writer, f experiment.Figure, opts experiment.Options) error {
	start := time.Now()
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	if err := f.Run(w, opts); err != nil {
		return fmt.Errorf("%s: %w", f.ID, err)
	}
	fmt.Fprintf(w, "-- %s done in %v --\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	return nil
}
