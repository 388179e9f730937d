package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// VerifyReportSchema versions BENCH_verify.json; bump it whenever a
// field changes meaning so the CI comparator can refuse mismatched
// baselines instead of mis-reading them. Version 2: CNF preprocessing
// landed — the counters block gained the per-pass preprocessor columns
// and cnf_clauses/propagations/conflicts now measure the preprocessed
// search. Version 3: the run is journaled and replayed — the report
// gained the exact-match robustness columns escalations (solver
// escalations during the run) and resumed (verdicts restored from the
// journal on replay; a drop means verdicts stopped being checkpointed).
// Version 4: the CDCL core gained an LBD-tiered learned-clause database
// with in-search inprocessing — the counters block gained lbd_core,
// db_reductions, inprocessings, clauses_vivified, vivify_shrunk_lits,
// and learnts_subsumed, and two old columns changed meaning:
// learned_clauses still counts learn events but the clauses themselves
// are now retained by LBD tier rather than by activity-sorted halving,
// and restarts/conflicts measure a search that is periodically
// simplified (vivification, learnt subsumption, root-unit saturation)
// at restart boundaries, so both are far below schema-3 values on the
// same corpus. The presolver also gained the polynomial-normalization
// domain (counter ring_refuted): disequalities settled as ring
// identities of Z/2^w never reach the SAT core at all, which shrinks
// cdcl_runs and every SAT-core column alongside the inprocessing
// effect.
// Version 5: assumption-based incremental solving landed and is on by
// default — the counters block gained incremental_solves (CDCL runs
// answered by a persistent per-type-assignment session),
// assumption_lits (activation literals allocated, one per query),
// encodings_reused (Tseitin cache hits across the queries of a
// session), and learnts_retained (learnt clauses carried into warm
// session solves). Two old columns changed meaning under sessions:
// cnf_vars and cnf_clauses are now per-query *deltas* of the shared
// clause database (the variables and clauses each query added), not
// fresh-formula sizes, so both are far below schema-4 values; and
// conflicts/propagations measure searches that start with the previous
// queries' learnt clauses already in the database.
// Version 6: sessions became the only solving path and restart-boundary
// inprocessing was deleted — the counters block lost inprocessings,
// clauses_vivified, vivify_shrunk_lits, and learnts_subsumed, and
// conflicts/propagations/restarts now measure the plain LBD-tiered CDCL
// loop (more conflicts, fewer propagations than schema 5).
// Version 7: three solver passes that did not pay were deleted — the
// counters block lost simplified and term_nodes_after (presolve no
// longer rewrites the formula, it only decides it) and hint_lits
// (presolve no longer seeds refinement facts as clauses), and
// probe_units now counts only the literals failed-literal probing under
// each query's assumptions finds, since the CNF preprocessor no longer
// probes.
// Version 8: propagations now include the propagations of failed-literal
// probing under each query's assumptions (sat.ProbeUnder), which the
// counter used to miss; every other column keeps its meaning.
// Version 9: the presolver keeps only the ring check — the counters
// block lost ring_refuted, which would always equal decided, and the
// queries the bitwise and refinement domains used to decide reach the
// SAT core, so decided drops and cdcl_runs and the SAT-core columns
// grow.
const VerifyReportSchema = 9

// VerifySlow is one entry of the report's slowest-transforms table.
// Durations are machine-dependent and informational; the comparator
// never diffs them.
type VerifySlow struct {
	Name       string `json:"name"`
	Verdict    string `json:"verdict"`
	DurationUS int64  `json:"duration_us"`
	Queries    int    `json:"queries"`
	Conflicts  int64  `json:"conflicts"`
}

// VerifyReport is the machine-readable perf baseline produced by the
// "verify" experiment: environment provenance, exact verdict counts,
// and the deterministic work counters of a full-corpus verification.
// The counters are reproducible run-to-run (typing enumeration, term
// construction, and presolve fact order are all deterministic), which
// is what makes a checked-in baseline meaningful.
type VerifyReport struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	Widths        []int  `json:"widths"`

	Transforms int `json:"transforms"`
	Valid      int `json:"valid"`
	Invalid    int `json:"invalid"`
	Rejected   int `json:"rejected"`
	Unknown    int `json:"unknown"`

	Queries  int                `json:"queries"`
	Counters telemetry.Counters `json:"counters"`

	// Escalations counts solver escalations across the run; Resumed is
	// the number of verdicts a journal replay of the same run restores
	// without re-verifying. Both are deterministic and exact-match: an
	// escalation drift is a solver-behaviour change, a resumed drop
	// means verdicts silently stopped reaching the crash-safety journal.
	Escalations int `json:"escalations"`
	Resumed     int `json:"resumed"`

	// CounterKeys lists the counter columns literally present in a
	// loaded baseline file (LoadVerifyReport fills it from the raw
	// JSON). The comparator uses it to fail when a baseline predates a
	// counter the ±tolerance policy is supposed to cover — a missing
	// column would otherwise unmarshal as zero and pass silently.
	CounterKeys []string `json:"-"`

	// WallMS and PeakHeapBytes depend on the machine and the scheduler;
	// the comparator reports them but never fails on them.
	WallMS        int64 `json:"wall_ms"`
	PeakHeapBytes int64 `json:"peak_heap_bytes"`

	Slowest []VerifySlow `json:"slowest"`
}

// VerifyBench runs the full corpus through the parallel driver and
// renders the telemetry digest; with ArtifactDir set it also writes the
// schema-versioned BENCH_verify.json report, and with Baseline set it
// diffs the run against a checked-in report, appending regressions to
// cfg.Failures (the CLI turns those into a nonzero exit).
func VerifyBench(cfg *Config) string {
	var sb strings.Builder
	sb.WriteString("Verify: corpus verification perf baseline (BENCH_verify.json)\n\n")

	ts := suite.ParseAll()

	// Journal the run, then replay it: the replay's resumed count proves
	// every deterministic verdict made it to the crash-safety journal.
	// The replay itself is nearly free — restored verdicts skip the
	// solver entirely.
	resumed := 0
	jdir, jerr := os.MkdirTemp("", "alive-bench-journal-")
	if jerr != nil {
		cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: journal tempdir: %v", jerr))
	}
	var journal *verify.Journal
	jpath := filepath.Join(jdir, "run.ndjson")
	if jerr == nil {
		defer os.RemoveAll(jdir)
		journal, jerr = verify.CreateJournal(jpath, cfg.verifyOpts())
		if jerr != nil {
			cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: journal: %v", jerr))
		}
	}

	results, stats := verify.RunCorpus(context.Background(), ts, verify.CorpusOptions{
		Verify:  cfg.verifyOpts(),
		Workers: cfg.Jobs,
		Journal: journal,
	})
	sum := verify.Summarize(results, stats)

	if journal != nil {
		journal.Close()
		if replay, rerr := verify.OpenJournal(jpath, cfg.verifyOpts()); rerr != nil {
			cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: journal replay: %v", rerr))
		} else {
			_, rstats := verify.RunCorpus(context.Background(), ts, verify.CorpusOptions{
				Verify:  cfg.verifyOpts(),
				Workers: cfg.Jobs,
				Journal: replay,
			})
			replay.Close()
			resumed = rstats.Resumed
		}
	}

	rep := &VerifyReport{
		SchemaVersion: VerifyReportSchema,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Widths:        cfg.Widths,
		Transforms:    stats.Total,
		Valid:         stats.Valid,
		Invalid:       stats.Invalid,
		Rejected:      stats.Rejected,
		Unknown:       stats.Unknown,
		Queries:       stats.Queries,
		Counters:      stats.Counters,
		Escalations:   stats.Escalations,
		Resumed:       resumed,
		WallMS:        stats.Duration.Milliseconds(),
		PeakHeapBytes: int64(stats.PeakHeapBytes),
	}
	for _, rec := range sum.Slowest(10) {
		rep.Slowest = append(rep.Slowest, VerifySlow{
			Name:       rec.Name,
			Verdict:    rec.Verdict,
			DurationUS: rec.DurationUS,
			Queries:    rec.Queries,
			Conflicts:  rec.Counters.Conflicts,
		})
	}

	sum.Render(&sb, 10)

	if cfg.ArtifactDir != "" {
		path := filepath.Join(cfg.ArtifactDir, "BENCH_verify.json")
		if err := WriteVerifyReport(path, rep); err != nil {
			fmt.Fprintf(&sb, "\nartifact: %v\n", err)
			cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: %v", err))
		} else {
			fmt.Fprintf(&sb, "\nartifact: wrote %s\n", path)
		}
	}

	if cfg.History != "" {
		if err := AppendHistory(cfg.History, historyRecord(rep, time.Now())); err != nil {
			fmt.Fprintf(&sb, "\nhistory: %v\n", err)
			cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: history: %v", err))
		} else {
			fmt.Fprintf(&sb, "\nhistory: appended to %s\n", cfg.History)
		}
	}

	if cfg.Baseline != "" {
		base, err := LoadVerifyReport(cfg.Baseline)
		if err != nil {
			fmt.Fprintf(&sb, "\nbaseline: %v\n", err)
			cfg.Failures = append(cfg.Failures, fmt.Sprintf("verify: %v", err))
			return sb.String()
		}
		tol := cfg.Tolerance
		if tol <= 0 {
			tol = 0.25
		}
		fails, notes := CompareVerifyReports(base, rep, tol)
		fmt.Fprintf(&sb, "\nbaseline compare vs %s (tolerance %.0f%%):\n", cfg.Baseline, 100*tol)
		for _, n := range notes {
			fmt.Fprintf(&sb, "  note: %s\n", n)
		}
		for _, f := range fails {
			fmt.Fprintf(&sb, "  FAIL: %s\n", f)
		}
		if len(fails) == 0 {
			sb.WriteString("  within tolerance — PASS\n")
		} else {
			cfg.Failures = append(cfg.Failures, fails...)
		}
	}
	return sb.String()
}

// WriteVerifyReport writes rep as indented JSON, creating the directory
// if needed.
func WriteVerifyReport(path string, rep *VerifyReport) error { return writeJSON(path, rep) }

// writeJSON writes v as indented JSON, creating the directory if
// needed.
func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadVerifyReport reads a BENCH_verify.json and rejects schema
// mismatches.
func LoadVerifyReport(path string) (*VerifyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep VerifyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.SchemaVersion != VerifyReportSchema {
		return nil, fmt.Errorf("%s: schema version %d, want %d", path, rep.SchemaVersion, VerifyReportSchema)
	}
	var raw struct {
		Counters map[string]json.RawMessage `json:"counters"`
	}
	if err := json.Unmarshal(data, &raw); err == nil {
		for k := range raw.Counters {
			rep.CounterKeys = append(rep.CounterKeys, k)
		}
		sort.Strings(rep.CounterKeys)
	}
	return &rep, nil
}

// CompareVerifyReports diffs a run against a baseline. The policy keeps
// CI meaningful without becoming flaky across runner speeds:
//
//   - corpus shape and verdict counts must match exactly — a changed
//     verdict is never a perf regression, it is a correctness change;
//   - deterministic work counters (CDCL runs, propagations, conflicts,
//     CNF sizes, ...) fail when they grow beyond the tolerance (plus a
//     small absolute slack so near-zero counters don't trip on noise);
//     shrinking is reported as an improvement note, not a failure;
//   - outcome counters (outcomeCounters) are never gated: a move beyond
//     the tolerance is a note that says whether the counter rose or
//     fell;
//   - wall-clock time and peak heap are machine-dependent and are
//     reported as notes only.
func CompareVerifyReports(base, cur *VerifyReport, tol float64) (fails, notes []string) {
	exact := []struct {
		name      string
		old, new_ int
	}{
		{"transforms", base.Transforms, cur.Transforms},
		{"valid", base.Valid, cur.Valid},
		{"invalid", base.Invalid, cur.Invalid},
		{"rejected", base.Rejected, cur.Rejected},
		{"unknown", base.Unknown, cur.Unknown},
		{"queries", base.Queries, cur.Queries},
		{"escalations", base.Escalations, cur.Escalations},
		{"resumed", base.Resumed, cur.Resumed},
	}
	for _, e := range exact {
		if e.old != e.new_ {
			fails = append(fails, fmt.Sprintf("%s: %d, baseline %d (must match exactly)", e.name, e.new_, e.old))
		}
	}
	if !baselineWidthsEqual(base.Widths, cur.Widths) {
		fails = append(fails, fmt.Sprintf("widths: %v, baseline %v (not comparable)", cur.Widths, base.Widths))
		return fails, notes
	}

	// A baseline loaded from disk carries the counter columns literally
	// present in its JSON; every column of the current policy table must
	// be there, or the ±tolerance gate would silently compare against an
	// unmarshal-default zero.
	if base.CounterKeys != nil {
		present := map[string]bool{}
		for _, k := range base.CounterKeys {
			present[k] = true
		}
		base.Counters.Each(func(name string, _ int64) {
			if !present[name] {
				fails = append(fails, fmt.Sprintf("counter %s: missing from baseline (stale baseline file — regenerate it)", name))
			}
		})
	}

	// The two Each calls visit fields in the same declared order, so the
	// pairs zip by position.
	var names []string
	var baseVals, curVals []int64
	base.Counters.Each(func(name string, v int64) {
		names = append(names, name)
		baseVals = append(baseVals, v)
	})
	cur.Counters.Each(func(_ string, v int64) { curVals = append(curVals, v) })
	const slack = 16 // absolute headroom so near-zero counters aren't all-noise
	for i, name := range names {
		b, c := baseVals[i], curVals[i]
		limit := int64(float64(b)*(1+tol)) + slack
		fell := b > 0 && float64(c) < float64(b)*(1-tol)
		switch {
		case outcomeCounters[name]:
			if c > limit {
				notes = append(notes, fmt.Sprintf("%s rose: %d from %d", name, c, b))
			} else if fell {
				notes = append(notes, fmt.Sprintf("%s fell: %d from %d", name, c, b))
			}
		case c > limit:
			fails = append(fails, fmt.Sprintf("%s: %d, baseline %d (limit %d)", name, c, b, limit))
		case fell:
			notes = append(notes, fmt.Sprintf("%s improved: %d from %d", name, c, b))
		}
	}

	if base.WallMS > 0 {
		notes = append(notes, fmt.Sprintf("wall clock %dms vs baseline %dms (%s, informational)",
			cur.WallMS, base.WallMS, pctDelta(cur.WallMS, base.WallMS)))
	}
	if base.PeakHeapBytes > 0 {
		notes = append(notes, fmt.Sprintf("peak heap %.1f MiB vs baseline %.1f MiB (%s, informational)",
			float64(cur.PeakHeapBytes)/(1<<20), float64(base.PeakHeapBytes)/(1<<20),
			pctDelta(cur.PeakHeapBytes, base.PeakHeapBytes)))
	}
	return fails, notes
}

// outcomeCounters are the counters that count what a layer achieved
// rather than the work it did: decisions, simplifications and reuse.
// BENCHMARK.json rates them "higher is better", and a rise can mean
// less search as well as more, so they are reported and never gated.
var outcomeCounters = map[string]bool{
	"folded":               true,
	"decided":              true,
	"vars_eliminated":      true,
	"clauses_subsumed":     true,
	"clauses_strengthened": true,
	"clauses_blocked":      true,
	"probe_units":          true,
	"encodings_reused":     true,
	"learnts_retained":     true,
}

// pctDelta renders cur relative to a nonzero baseline as a signed
// percentage, e.g. "+12.3%" or "-4.0%".
func pctDelta(cur, base int64) string {
	return fmt.Sprintf("%+.1f%%", 100*(float64(cur)-float64(base))/float64(base))
}

func baselineWidthsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
