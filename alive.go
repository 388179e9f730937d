// Package alive is a Go implementation of Alive — the language and
// verifier for LLVM peephole optimizations from "Provably Correct
// Peephole Optimizations with Alive" (Lopes, Menendez, Nagarakatte,
// Regehr; PLDI 2015).
//
// The package is the public façade over the internal machinery:
//
//   - Parse / ParseFile read Alive transformations
//     (`source => target` templates with optional Name: and Pre: headers);
//   - Verify proves a transformation correct for every feasible type
//     assignment or returns a Figure 5-style counterexample;
//   - Lint runs the solver-free static analyzer (unbound names,
//     contradictory type constraints, vacuous preconditions, misplaced
//     attributes, duplicate and shadowed patterns);
//   - InferAttributes synthesizes the weakest nsw/nuw/exact precondition
//     and the strongest postcondition (Section 3.4);
//   - GenerateCpp emits InstCombine-style C++ (Section 4).
//
// Everything — including the SMT solver the checker runs on — is
// implemented in this module with no external dependencies; see DESIGN.md.
//
// # Quick start
//
//	opt, err := alive.Parse(`
//	%1 = xor %x, -1
//	%2 = add %1, C
//	=>
//	%2 = sub C-1, %x
//	`)
//	if err != nil { ... }
//	res := alive.Verify(opt[0], alive.Options{})
//	if res.Verdict == alive.Invalid {
//	    fmt.Println(res.Cex)
//	}
package alive

import (
	"context"

	"alive/internal/attrs"
	"alive/internal/codegen"
	"alive/internal/ir"
	"alive/internal/lint"
	"alive/internal/metrics"
	"alive/internal/parser"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// Transform is a parsed Alive transformation (source template, target
// template, optional precondition).
type Transform = ir.Transform

// Options configures verification: candidate bit widths, the width cap
// applied to transformations containing multiplication or division, the
// ABI pointer width, and solver budgets.
type Options = verify.Options

// Result is a verification outcome: a Verdict, counterexample (when
// Invalid), and solver statistics.
type Result = verify.Result

// Counterexample is a concrete wrong-result witness, printable in the
// paper's Figure 5 format.
type Counterexample = verify.Counterexample

// Verdict classifies a verification outcome.
type Verdict = verify.Verdict

// Verification outcomes.
const (
	Valid    = verify.Valid
	Invalid  = verify.Invalid
	Unknown  = verify.Unknown
	Rejected = verify.Rejected // lint errors; no proof attempted
)

// UnknownReason classifies why a verification returned Unknown:
// conflict budget, deadline, cancellation, CEGIS round cap, unsupported
// encoding, or a recovered internal panic.
type UnknownReason = verify.UnknownReason

// Unknown reasons (Result.Reason when Verdict == Unknown).
const (
	ReasonNone           = verify.ReasonNone
	ReasonConflictBudget = verify.ReasonConflictBudget
	ReasonDeadline       = verify.ReasonDeadline
	ReasonCancelled      = verify.ReasonCancelled
	ReasonCEGISRounds    = verify.ReasonCEGISRounds
	ReasonEncoding       = verify.ReasonEncoding
	ReasonPanic          = verify.ReasonPanic
	ReasonOOM            = verify.ReasonOOM      // memory governor abort
	ReasonInjected       = verify.ReasonInjected // chaos-build injected fault
)

// CorpusOptions configures RunCorpus: per-transform verification
// options, worker-pool size, per-transform timeout, and an in-order
// result callback.
type CorpusOptions = verify.CorpusOptions

// CorpusStats aggregates a RunCorpus run.
type CorpusStats = verify.CorpusStats

// Journal is a crash-safe append-only NDJSON record of corpus verdicts;
// attach one via CorpusOptions.Journal to checkpoint a run and resume
// it after a crash with OpenJournal.
type Journal = verify.Journal

// CreateJournal starts a fresh corpus journal at path.
func CreateJournal(path string, opts Options) (*Journal, error) {
	return verify.CreateJournal(path, opts)
}

// OpenJournal opens an existing journal for resuming (creating it if
// missing); journaled verdicts are skipped by RunCorpus.
func OpenJournal(path string, opts Options) (*Journal, error) {
	return verify.OpenJournal(path, opts)
}

// Tracer collects hierarchical telemetry spans; attach one via
// Options.Trace and export it with WriteChromeTrace for Perfetto /
// chrome://tracing, or stream it incrementally (crash-safe) with
// StreamChromeTraceFile + CloseStream. A nil Tracer disables telemetry
// at negligible cost.
type Tracer = telemetry.Tracer

// FlightRecorder serializes post-mortem NDJSON artifacts for hard
// queries — verifications that end Unknown or exceed its Slow
// threshold. Attach one via Options.Flight.
type FlightRecorder = metrics.FlightRecorder

// FlightHeader is the first record of a flight-recorder artifact.
type FlightHeader = metrics.FlightHeader

// SolverSample is one solver-internals snapshot, taken at restart
// boundaries; flight artifacts carry the last ring of them.
type SolverSample = metrics.SolverSample

// DebugServer is the HTTP observability endpoint: /metrics (Prometheus
// text format), /debug/status (live run JSON), and /debug/pprof.
type DebugServer = metrics.DebugServer

// NewDebugServer starts the debug HTTP server on addr (host:port;
// ":0" picks a free port — read it back from Addr), serving live's
// /metrics series and /debug/status snapshot.
func NewDebugServer(addr string, live *Live) (*DebugServer, error) {
	return metrics.NewDebugServer(addr, live.WriteMetrics, func() any { return live.Snapshot() })
}

// Live is the record of a running corpus: attach one via
// CorpusOptions.Live and RunCorpus keeps it current (per-worker
// transform, queue depth, verdict tallies, the last solver sample).
// Snapshot feeds /debug/status; WriteMetrics writes /metrics.
type Live = verify.Live

// LiveSnapshot is a point-in-time copy of a Live block, JSON-ready.
type LiveSnapshot = verify.LiveSnapshot

// NewLive creates an empty run-status block.
func NewLive() *Live { return verify.NewLive() }

// Counters is the coherent set of verification work counters — SAT-core
// work, presolver outcomes, CNF sizes, CEGIS rounds — populated on
// every Result whether or not a tracer is attached.
type Counters = telemetry.Counters

// Summary digests a corpus run: per-transform telemetry records plus
// histograms of wall time and CNF volume. Render writes the human
// digest; WriteNDJSON streams machine-readable per-transform records.
type Summary = verify.Summary

// TransformStat is one per-transformation telemetry record of a Summary.
type TransformStat = verify.TransformStat

// Diagnostic is one finding of the static analyzer: a stable AL*** code,
// a severity, a source position, and a message with an optional hint.
type Diagnostic = lint.Diagnostic

// Severity grades a Diagnostic.
type Severity = lint.Severity

// Diagnostic severities.
const (
	SeverityInfo    = lint.Info
	SeverityWarning = lint.Warning
	SeverityError   = lint.Error
)

// AttrResult reports attribute inference: the best feasible placement of
// nsw/nuw/exact attributes and whether the original precondition was
// weakened or the postcondition strengthened.
type AttrResult = attrs.Result

// Parse parses one or more Alive transformations from a string.
func Parse(src string) ([]*Transform, error) { return parser.Parse(src) }

// ParseOne parses exactly one transformation.
func ParseOne(src string) (*Transform, error) { return parser.ParseOne(src) }

// ParseFile parses a .opt file.
func ParseFile(path string) ([]*Transform, error) { return parser.ParseFile(path) }

// Verify checks a transformation against the refinement criteria of the
// paper (Sections 3.1-3.3) for every feasible type assignment.
func Verify(t *Transform, opts Options) Result { return verify.Verify(t, opts) }

// VerifyContext is Verify governed by a context: cancellation and the
// sooner of Options.Timeout and the context's deadline abort the proof
// search promptly, yielding Unknown with a structured reason. Internal
// panics are likewise isolated into Unknown (ReasonPanic) instead of
// crashing the caller.
func VerifyContext(ctx context.Context, t *Transform, opts Options) Result {
	return verify.VerifyContext(ctx, t, opts)
}

// RunCorpus verifies a corpus of transformations on a bounded worker
// pool with per-transform timeouts and panic isolation. results[i] is
// always ts[i]'s outcome; on interrupt it returns promptly with partial
// results.
func RunCorpus(ctx context.Context, ts []*Transform, opts CorpusOptions) ([]Result, CorpusStats) {
	return verify.RunCorpus(ctx, ts, opts)
}

// NewTracer creates a telemetry collector. Pass it as Options.Trace to
// record the full verification pipeline — per transform, per type
// assignment, per correctness condition, per SMT check — then export
// with its WriteChromeTraceFile method.
func NewTracer() *Tracer { return telemetry.New() }

// Summarize digests a corpus run into per-transform records and
// histograms for reporting.
func Summarize(results []Result, stats CorpusStats) *Summary {
	return verify.Summarize(results, stats)
}

// Lint runs the per-transform checks and, across the whole slice, the
// corpus-level duplicate and shadowing analyses. It never invokes the
// SAT/SMT machinery; diagnostics come back in position order per
// transformation. Slice order is the pattern-registration order the
// shadowing analysis assumes.
func Lint(ts []*Transform) []Diagnostic { return lint.Transforms(ts) }

// LintCorpus runs only the cross-transform analyses (duplicate and
// shadowed source patterns) without re-running the per-transform checks.
func LintCorpus(ts []*Transform) []Diagnostic { return lint.Corpus(ts) }

// RenderDiagnostics formats lint findings compiler-style, one per line
// (with the optional fix hint indented below); file may be empty.
func RenderDiagnostics(file string, ds []Diagnostic) string { return lint.Render(file, ds) }

// InferAttributes runs the Figure 6 attribute inference. The
// transformation must be correct as written.
func InferAttributes(t *Transform, opts Options) (*AttrResult, error) {
	return attrs.Infer(t, opts)
}

// InferAttributesContext is InferAttributes governed by a context:
// each candidate check runs under it, and once it is done no further
// check starts. Candidates left unchecked, or that the checker gave up
// on, are listed in AttrResult.Undecided.
func InferAttributesContext(ctx context.Context, t *Transform, opts Options) (*AttrResult, error) {
	return attrs.InferContext(ctx, t, opts)
}

// GenerateCpp emits InstCombine-style C++ for a (verified)
// transformation, as in Figure 7.
func GenerateCpp(t *Transform) (string, error) { return codegen.Generate(t) }

// DumpSMTQueries renders the negated correctness conditions as SMT-LIB 2
// scripts for cross-checking against an external SMT solver.
func DumpSMTQueries(t *Transform, opts Options) ([]string, error) {
	return verify.DumpQueries(t, opts)
}

// GenerateCppPass emits a complete C++ pass file for a set of verified
// transformations, returning the source text and the names of
// transformations the generator cannot express.
func GenerateCppPass(name string, ts []*Transform) (cpp string, skipped []string) {
	return codegen.GeneratePass(name, ts)
}
