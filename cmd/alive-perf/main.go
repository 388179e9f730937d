// Command alive-perf is the repository's benchmark. It runs closed-loop
// workloads over the verifier (verify.RunCorpus), attribute inference
// (attrs.Infer) and the generated peephole pass (miniir), checks every
// output against an expectation the program under test did not produce,
// and prints each metric as a `workload metric value unit` line followed
// by one JSON result line.
//
// Run it from the repository root through bench.sh, which builds it:
//
//	bash cmd/alive-perf/bench.sh --seed 1                 # every workload
//	bash cmd/alive-perf/bench.sh --workload attr-infer --seed 2 --seconds 25
//	bash cmd/alive-perf/bench.sh --trace 1 --trace-out .bench_build/traces
//	bash cmd/alive-perf/bench.sh --compare base/ cand/
//
// With --trace 0 the JSON result holds the end-to-end metrics, with
// --trace 1 the per-layer ones. --compare judges two directories of saved
// output, one run per file, by the bounds in BENCHMARK.json. The exit
// status is 1 when an output check fails or a metric regressed, 2 on a
// usage error.
//
// The benchmark is a module of its own; its tests run with
// `go -C cmd/alive-perf test ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"alive/cmd/alive-perf/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range perf.Workloads {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("alive-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the input order and the generated module")
	seconds := fs.Float64("seconds", 25, "time budget for the rounds of each workload")
	trace := fs.Int("trace", 0, "1 adds traced rounds and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write a Chrome trace per workload to this directory")
	compare := fs.Bool("compare", false, "compare two directories of saved runs: --compare BASE CAND")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds --compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "alive-perf: --compare takes two directories")
			return 2
		}
		regressed, err := perf.Compare(stdout, *benchmark, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "alive-perf: %v\n", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	workloads := perf.Workloads
	if *workload != "all" {
		w := perf.Lookup(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "alive-perf: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []*perf.Workload{w}
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fmt.Fprintf(stderr, "alive-perf: %v\n", err)
			return 2
		}
	}

	cfg := perf.Config{
		Seed:     *seed,
		Budget:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		TraceDir: *traceOut,
		Size:     perf.Full,
	}
	var reps []*perf.Report
	for _, w := range workloads {
		rep, err := perf.Run(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "alive-perf: %v\n", err)
			return 1
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "alive-perf: %s: FAIL %s\n", w.Name, f)
		}
		rep.WriteText(stdout)
		reps = append(reps, rep)
	}
	res := perf.Summarize(reps, cfg.Trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "alive-perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
