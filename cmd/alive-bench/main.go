// Command alive-bench regenerates every table and figure of the paper's
// evaluation (Section 6) as text reports; see the per-experiment index in
// DESIGN.md and the recorded outputs in EXPERIMENTS.md.
//
// Usage:
//
//	alive-bench [-j N] [-artifacts DIR] -experiment table3|fig5|fig8|fig9|patches|attrs|lint|ablate|verify|compiletime|runtime|driver|trend|all
//
// The "verify" experiment is the perf baseline: it verifies the whole
// corpus, prints the telemetry digest, and with -artifacts writes the
// schema-versioned BENCH_verify.json. With -baseline it diffs the run
// against a checked-in report (exact verdict counts, work counters
// within -tolerance) and exits 1 on regression — the CI benchmark-smoke
// job. -cpuprofile/-memprofile capture pprof profiles of the run.
//
// With -history f.ndjson the verify experiment also appends a
// schema-versioned trend record (verdicts, work counters, wall time)
// after each run, and -trend K prints per-counter least-squares slopes
// over the last K records — the slow-creep view a one-shot baseline
// compare cannot give. "-experiment trend" prints the trend report
// alone without running anything.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"alive/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("experiment", "all", "which experiment to run (table3, fig5, fig8, fig9, patches, attrs, lint, ablate, verify, compiletime, runtime, driver, trend, all)")
	widths := flag.String("widths", "4,8", "verification widths for corpus experiments")
	jobs := flag.Int("j", 0, "corpus-driver workers (0 = GOMAXPROCS)")
	artifacts := flag.String("artifacts", "", "directory for machine-readable JSON reports (empty = none)")
	baseline := flag.String("baseline", "", "checked-in BENCH_verify.json to compare the verify experiment against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative growth of work counters vs the baseline")
	history := flag.String("history", "", "NDJSON trend file the verify experiment appends a history record to")
	trend := flag.Int("trend", 0, "with -history, print per-counter slopes over the last N history records (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	runners := map[string]func(*bench.Config) string{
		"table3":      bench.Table3,
		"fig5":        bench.Figure5,
		"fig8":        bench.Figure8,
		"fig9":        bench.Figure9,
		"patches":     bench.Patches,
		"attrs":       bench.AttrInference,
		"lint":        bench.Lint,
		"ablate":      bench.Ablate,
		"verify":      bench.VerifyBench,
		"compiletime": bench.CompileTime,
		"runtime":     bench.RunTime,
		"driver":      bench.Driver,
	}
	order := []string{"table3", "fig5", "fig8", "patches", "attrs", "lint", "ablate", "verify", "fig9", "compiletime", "runtime", "driver"}

	cfg, err := bench.NewConfig(*widths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
		return 2
	}
	cfg.Jobs = *jobs
	cfg.ArtifactDir = *artifacts
	cfg.Baseline = *baseline
	cfg.Tolerance = *tolerance
	cfg.History = *history
	if *trend != 0 && *history == "" {
		fmt.Fprintln(os.Stderr, "alive-bench: -trend requires -history")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
			}
		}()
	}

	switch {
	case *exp == "trend":
		// Trend-only mode: no experiments, just the history report.
	case *exp == "all":
		for _, name := range order {
			fmt.Println(runners[name](cfg))
		}
	default:
		runner, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "alive-bench: unknown experiment %q\n", *exp)
			return 2
		}
		fmt.Println(runner(cfg))
	}

	if *trend != 0 || *exp == "trend" {
		if *history == "" {
			fmt.Fprintln(os.Stderr, "alive-bench: -experiment trend requires -history")
			return 2
		}
		recs, err := bench.LoadHistory(*history)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive-bench: %v\n", err)
			return 2
		}
		fmt.Println(bench.TrendReport(recs, *trend))
	}

	if len(cfg.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "alive-bench: %d regression(s):\n", len(cfg.Failures))
		for _, f := range cfg.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}
