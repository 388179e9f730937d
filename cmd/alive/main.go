// Command alive verifies Alive transformations: it parses .opt files (or
// stdin), proves each transformation correct for every feasible type
// assignment, and prints counterexamples for wrong ones — the workflow of
// the original Alive tool.
//
// Usage:
//
//	alive [flags] file.opt...
//	alive [flags] -          # read from stdin
//
// Flags:
//
//	-widths 4,8,16     candidate integer bit widths (default 1,4,8,16,32,64)
//	-divmul-max 8      width cap for mul/div transformations (0 = none)
//	-j N               verify N transformations in parallel (0 = GOMAXPROCS)
//	-timeout 30s       wall-clock budget per transformation (0 = none)
//	-total-timeout 5m  wall-clock budget for the whole run (0 = none)
//	-infer             also run nsw/nuw/exact attribute inference
//	-dump-smt          print the verification conditions as SMT-LIB 2
//	-gencpp            emit InstCombine-style C++ for valid transformations
//	-lint              run the static analyzer first; lint errors reject a
//	                   transformation without attempting a proof
//	-quiet             print only the per-transformation verdict lines
//	-v                 print per-transformation solver counters
//	-trace out.json    write a Chrome trace_event file of the run, loadable
//	                   in Perfetto or chrome://tracing; events stream to the
//	                   file as spans close, so an interrupted or killed run
//	                   still leaves a loadable trace
//	-debug-addr :8080  serve live observability over HTTP while the run is
//	                   in flight: /metrics (Prometheus text format),
//	                   /debug/status (JSON: per-worker current transform,
//	                   queue depth, verdict tallies), /debug/pprof. ":0"
//	                   picks a free port; the bound address is printed to
//	                   stderr
//	-flight-dir d      write a post-mortem NDJSON flight artifact (last
//	                   solver samples, give-up span path, counter deltas)
//	                   into d for every verification that ends unknown
//	-flight-slow 10s   with -flight-dir, also record verifications slower
//	                   than this threshold, whatever their verdict
//	-stats out.ndjson  write per-transformation telemetry records, one JSON
//	                   object per line ("-" for stdout)
//	-summary           print the run digest: aggregate solver work, slowest
//	                   transformations, and time/clause histograms
//	-cpuprofile f      write a CPU profile; samples carry a "transform"
//	                   pprof label naming the transformation being verified
//	-memprofile f      write an allocation profile at exit
//	-mem-budget 512M   soft live-heap budget (K/M/G suffixes); when the heap
//	                   stays over budget after a forced GC the longest-running
//	                   in-flight proof is aborted as unknown (out-of-memory)
//	                   instead of letting the kernel OOM-kill the process
//	-journal f.ndjson  checkpoint verdicts to an append-only fsync'd NDJSON
//	                   journal as they are reached (crash-safe; overwrites f)
//	-resume f.ndjson   resume from a journal: verdicts already recorded are
//	                   restored without re-verifying, fresh verdicts are
//	                   appended (the file is created if missing)
//
// A SIGINT or SIGTERM stops the run gracefully: in-flight proofs are
// cancelled, verdicts already reached are kept (and journaled, with
// -journal/-resume), and transformations that never ran are reported
// unknown (cancelled). -total-timeout and an interrupt also end -infer:
// no further candidate is checked, and the inference reports how many
// it left undecided.
//
// Exit status: 0 all valid; 1 a transformation is incorrect, rejected, or
// failed to parse; 2 usage error; 3 a verdict is unknown (budget,
// deadline, unsupported, out-of-memory), or -infer left a candidate
// undecided; 4 the verifier panicked on a transformation (isolated,
// never a crash); 130 the run was interrupted.
// When several apply the most severe wins: 1 > 4 > 3 > 130 — except that
// unknowns which exist only because the run was interrupted count as the
// interrupt, not as unknown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alive"
)

func main() {
	os.Exit(run())
}

func run() int {
	widthsFlag := flag.String("widths", "", "comma-separated candidate bit widths (default 1,4,8,16,32,64)")
	divMulMax := flag.Int("divmul-max", 8, "width cap for transformations containing mul/div/rem (0 disables)")
	jobs := flag.Int("j", 1, "parallel verification workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per transformation (0 = none)")
	totalTimeout := flag.Duration("total-timeout", 0, "wall-clock budget for the whole run (0 = none)")
	infer := flag.Bool("infer", false, "run attribute inference on valid transformations")
	gencpp := flag.Bool("gencpp", false, "generate C++ for valid transformations")
	dumpSMT := flag.Bool("dump-smt", false, "print the verification conditions as SMT-LIB 2 scripts")
	lintFlag := flag.Bool("lint", false, "reject transformations with lint errors before proving")
	presolve := flag.String("presolve", "on", "ring presolve (refutes denied polynomial identities) before the SAT core (on|off)")
	preprocess := flag.String("preprocess", "on", "SatELite-style CNF preprocessing between bit-blasting and the SAT core (on|off)")
	quiet := flag.Bool("quiet", false, "suppress counterexample details")
	verbose := flag.Bool("v", false, "print per-transformation solver counters")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the run (streamed incrementally)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/status, and /debug/pprof on this address while the run is in flight")
	flightDir := flag.String("flight-dir", "", "write post-mortem flight-recorder artifacts for unknown verdicts into this directory")
	flightSlow := flag.Duration("flight-slow", 0, "with -flight-dir, also record verifications slower than this (0 = only unknowns)")
	statsOut := flag.String("stats", "", "write per-transformation NDJSON telemetry records (- for stdout)")
	summary := flag.Bool("summary", false, "print the run telemetry digest")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	memBudget := flag.String("mem-budget", "", "soft live-heap budget, e.g. 512M or 2G (0 or empty = unlimited)")
	journalOut := flag.String("journal", "", "checkpoint verdicts to this NDJSON journal (overwrites)")
	resumePath := flag.String("resume", "", "resume from (and keep appending to) this NDJSON journal")
	flag.Parse()

	opts := alive.Options{DivMulMaxWidth: *divMulMax, Lint: *lintFlag}
	if *divMulMax == 0 {
		opts.DivMulMaxWidth = -1
	}
	switch *presolve {
	case "on":
	case "off":
		opts.DisablePresolve = true
	default:
		fmt.Fprintf(os.Stderr, "alive: -presolve must be on or off, got %q\n", *presolve)
		return 2
	}
	switch *preprocess {
	case "on":
	case "off":
		opts.DisablePreprocess = true
	default:
		fmt.Fprintf(os.Stderr, "alive: -preprocess must be on or off, got %q\n", *preprocess)
		return 2
	}
	if *widthsFlag != "" {
		for _, s := range strings.Split(*widthsFlag, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w <= 0 || w > 64 {
				fmt.Fprintf(os.Stderr, "alive: bad width %q\n", s)
				return 2
			}
			opts.Widths = append(opts.Widths, w)
		}
	}
	if *jobs < 0 || *timeout < 0 || *totalTimeout < 0 {
		fmt.Fprintln(os.Stderr, "alive: -j, -timeout, and -total-timeout must be non-negative")
		return 2
	}
	if *memBudget != "" {
		b, err := parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive: -mem-budget: %v\n", err)
			return 2
		}
		opts.MaxHeapBytes = b
	}
	if *journalOut != "" && *resumePath != "" {
		fmt.Fprintln(os.Stderr, "alive: -journal and -resume are mutually exclusive (resume keeps appending)")
		return 2
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: alive [flags] file.opt... (or - for stdin)")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", err)
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
				fmt.Fprintf(os.Stderr, "alive: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "alive: %v\n", err)
			}
		}()
	}

	if *traceOut != "" {
		// Stream events as spans close: a SIGINT (or even a SIGKILL) mid-run
		// still leaves a loadable trace instead of losing everything held
		// in memory for a final flush.
		opts.Trace = alive.NewTracer()
		if err := opts.Trace.StreamChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", err)
			return 2
		}
	}

	// Observability: the debug server exposes live run status while the
	// corpus is in flight; the flight recorder files post-mortems for
	// queries the solver gave up on.
	var live *alive.Live
	if *debugAddr != "" {
		live = alive.NewLive()
		srv, err := alive.NewDebugServer(*debugAddr, live)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive: -debug-addr: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "alive: debug server listening on http://%s\n", srv.Addr())
	}
	if *flightSlow < 0 {
		fmt.Fprintln(os.Stderr, "alive: -flight-slow must be non-negative")
		return 2
	}
	if *flightDir != "" {
		opts.Flight = &alive.FlightRecorder{Dir: *flightDir, Slow: *flightSlow}
	} else if *flightSlow > 0 {
		fmt.Fprintln(os.Stderr, "alive: -flight-slow requires -flight-dir")
		return 2
	}

	// Parse everything up front so the corpus driver sees one flat list.
	parseFailed := false
	var corpus []*alive.Transform
	var names []string
	var files []string
	total := 0
	for _, path := range args {
		var (
			ts  []*alive.Transform
			err error
		)
		if path == "-" {
			data, rerr := io.ReadAll(os.Stdin)
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "alive: %v\n", rerr)
				return 2
			}
			ts, err = alive.Parse(string(data))
		} else {
			ts, err = alive.ParseFile(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", err)
			parseFailed = true
			continue
		}
		for _, t := range ts {
			total++
			name := t.Name
			if name == "" {
				name = fmt.Sprintf("%s#%d", path, total)
			}
			corpus = append(corpus, t)
			names = append(names, name)
			files = append(files, path)
		}
	}

	if *dumpSMT {
		for i, t := range corpus {
			scripts, derr := alive.DumpSMTQueries(t, opts)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "alive: %s: %v\n", names[i], derr)
			}
			for _, s := range scripts {
				fmt.Println(s)
			}
		}
	}

	var journal *alive.Journal
	if *journalOut != "" || *resumePath != "" {
		var jerr error
		if *resumePath != "" {
			journal, jerr = alive.OpenJournal(*resumePath, opts)
		} else {
			journal, jerr = alive.CreateJournal(*journalOut, opts)
		}
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", jerr)
			return 2
		}
		defer journal.Close()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *totalTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *totalTimeout)
		defer tcancel()
	}

	results, stats := alive.RunCorpus(ctx, corpus, alive.CorpusOptions{
		Verify:           opts,
		Workers:          *jobs,
		TransformTimeout: *timeout,
		Journal:          journal,
		Live:             live,
		OnResult: func(i int, res alive.Result) {
			printResult(names[i], files[i], res, *quiet, *verbose)
		},
	})

	// Heavy post-processing of valid transformations runs after the
	// parallel phase, sequentially, under the same context.
	inferDecided := true
	if *infer || *gencpp {
		for i, res := range results {
			if res.Verdict != alive.Valid {
				continue
			}
			fmt.Printf("%s:\n", names[i])
			if *infer && !runInference(ctx, corpus[i], opts) {
				inferDecided = false
			}
			if *gencpp {
				cpp, gerr := alive.GenerateCpp(corpus[i])
				if gerr != nil {
					fmt.Printf("  codegen: %v\n", gerr)
				} else {
					fmt.Println(cpp)
				}
			}
		}
	}

	if stats.Rejected > 0 {
		fmt.Printf("\n%d transformations: %d valid, %d incorrect, %d rejected, %d unknown (%v)\n",
			stats.Total, stats.Valid, stats.Invalid, stats.Rejected, stats.Unknown, stats.Duration.Round(time.Millisecond))
	} else {
		fmt.Printf("\n%d transformations: %d valid, %d incorrect, %d unknown (%v)\n",
			stats.Total, stats.Valid, stats.Invalid, stats.Unknown, stats.Duration.Round(time.Millisecond))
	}
	if stats.Resumed > 0 {
		fmt.Printf("resumed %d verdicts from journal, re-verified %d\n", stats.Resumed, stats.Completed)
	}
	if stats.MemoryAborts > 0 {
		fmt.Fprintf(os.Stderr, "alive: memory governor aborted %d verifications (budget %s)\n", stats.MemoryAborts, *memBudget)
	}
	if stats.JournalError != nil {
		fmt.Fprintf(os.Stderr, "alive: journal: %v (verdicts above are unaffected)\n", stats.JournalError)
	}
	if stats.Interrupted || (!inferDecided && ctx.Err() != nil) {
		fmt.Fprintln(os.Stderr, "alive: run interrupted; partial results above")
	}

	if *summary || *statsOut != "" {
		sum := alive.Summarize(results, stats)
		for i := range sum.Records {
			sum.Records[i].Name = names[i]
			sum.Records[i].File = lintFile(files[i])
		}
		if *statsOut != "" {
			if err := writeStats(*statsOut, sum); err != nil {
				fmt.Fprintf(os.Stderr, "alive: %v\n", err)
				return 2
			}
		}
		if *summary {
			fmt.Println()
			sum.Render(os.Stdout, 10)
		}
	}
	if *traceOut != "" {
		if err := opts.Trace.CloseStream(); err != nil {
			fmt.Fprintf(os.Stderr, "alive: %v\n", err)
			return 2
		}
	}

	code := exitCode(parseFailed, stats)
	if code == 0 && !inferDecided {
		// An inference the checker gave up on, or that the run's end cut
		// short, is an unknown; an interrupt during inference is the
		// interrupt.
		code = 3
		if errors.Is(ctx.Err(), context.Canceled) {
			code = 130
		}
	}
	return code
}

func writeStats(path string, sum *alive.Summary) error {
	if path == "-" {
		return sum.WriteNDJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sum.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exitCode folds the run's outcomes into one status, most severe first:
// incorrect/rejected/parse failure (1), an isolated verifier panic (4),
// an unknown verdict (3), a clean interrupt (130). Unknowns that exist
// only because the run was interrupted (reason cancelled) report as the
// interrupt, not as a solver giving up.
func exitCode(parseFailed bool, stats alive.CorpusStats) int {
	switch {
	case parseFailed || stats.Invalid > 0 || stats.Rejected > 0:
		return 1
	case stats.Panics > 0:
		return 4
	case stats.Unknown-stats.Cancelled > 0:
		return 3
	case stats.Interrupted || stats.Cancelled > 0:
		return 130
	}
	return 0
}

// parseBytes parses a byte size with an optional K/M/G (or
// KiB/MiB/GiB-style KB/MB/GB) suffix, base 1024.
func parseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := uint64(1)
	for _, suf := range []struct {
		s string
		m uint64
	}{{"GB", 1 << 30}, {"G", 1 << 30}, {"MB", 1 << 20}, {"M", 1 << 20}, {"KB", 1 << 10}, {"K", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(t, suf.s) {
			t = strings.TrimSuffix(t, suf.s)
			mult = suf.m
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q (want e.g. 512M, 2G)", s)
	}
	return n * mult, nil
}

func printResult(name, file string, res alive.Result, quiet, verbose bool) {
	switch res.Verdict {
	case alive.Valid:
		fmt.Printf("%-40s done (%d type assignments, %d queries, %v)\n",
			name, res.TypeAssignments, res.Queries, res.Duration.Round(time.Millisecond))
		if !quiet && len(res.Lint) > 0 {
			fmt.Print(alive.RenderDiagnostics(lintFile(file), res.Lint))
		}
	case alive.Invalid:
		fmt.Printf("%-40s INCORRECT\n", name)
		if !quiet && res.Cex != nil {
			fmt.Println(res.Cex.String())
		}
	case alive.Rejected:
		fmt.Printf("%-40s REJECTED (lint)\n", name)
		if !quiet {
			fmt.Print(alive.RenderDiagnostics(lintFile(file), res.Lint))
		}
	default:
		fmt.Printf("%-40s unknown (%s", name, res.Reason)
		if res.Reason == alive.ReasonDeadline || res.Reason == alive.ReasonConflictBudget {
			if res.GaveUpAssignment >= 0 {
				fmt.Printf(" at type assignment %d, %s condition", res.GaveUpAssignment, res.GaveUpCondition)
			}
		}
		if res.Err != nil {
			fmt.Printf(": %v", res.Err)
		}
		fmt.Println(")")
		if !quiet && res.PanicStack != "" {
			fmt.Fprintf(os.Stderr, "alive: %s: internal panic:\n%s\n", name, res.PanicStack)
		}
	}
	if verbose {
		c := res.Counters
		fmt.Printf("    solver: %d CDCL runs, %d propagations, %d conflicts, %d decisions, %d restarts, %d learned; presolve %d/%d decided; %d CNF vars, %d clauses\n",
			c.CDCLRuns, c.Propagations, c.Conflicts, c.Decisions, c.Restarts, c.LearnedClauses,
			c.Decided, c.Checks, c.CNFVars, c.CNFClauses)
		fmt.Printf("    preprocess: %d vars eliminated, %d subsumed, %d strengthened, %d blocked\n",
			c.VarsEliminated, c.ClausesSubsumed, c.ClausesStrengthened, c.ClausesBlocked)
		if c.IncrementalSolves > 0 {
			fmt.Printf("    session: %d solves, %d assumption lits, %d probe units, %d encodings reused, %d learnts retained, %d core learnts, %d reductions\n",
				c.IncrementalSolves, c.AssumptionLits, c.ProbeUnits, c.EncodingsReused, c.LearntsRetained, c.LBDCore, c.DBReductions)
		}
	}
}

// lintFile is the file label for rendered diagnostics; stdin has none.
func lintFile(path string) string {
	if path == "-" {
		return ""
	}
	return path
}

// runInference prints t's attribute inference and reports whether it
// decided every candidate.
func runInference(ctx context.Context, t *alive.Transform, opts alive.Options) bool {
	r, err := alive.InferAttributesContext(ctx, t, opts)
	if err != nil {
		fmt.Printf("  infer: %v\n", err)
		return false
	}
	out := r.Describe()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		fmt.Printf("  infer: %s\n", line)
	}
	return len(r.Undecided) == 0
}
