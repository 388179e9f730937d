// Package perf is the alive-perf benchmark: closed-loop workloads over
// the verifier, attribute inference and the generated peephole pass, each
// with a check of its outputs, and the statistics, span folding and
// comparison that turn their runs into metrics.
package perf

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"alive/internal/telemetry"
)

// Spec names a metric and its unit.
type Spec struct{ Name, Unit string }

// EndToEnd lists the metrics a user of the system sees. Every workload
// reports all of them, measured on untraced rounds.
var EndToEnd = []Spec{
	{"wall_s", "s"},          // median wall time of a round
	{"setup_s", "s"},         // median time to parse (and compile) the inputs
	{"latency_p50_ms", "ms"}, // time from an item's start to its result
	{"latency_p95_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// PerLayer lists the metrics of single layers, named <layer>.<metric>.
// Counts come from the verifier's counters and the APIs' return values.
// The *_share metrics need a traced run: each is a layer's self time as a
// share of the traced rounds' client time (clients × wall), or, for the
// set-up layers parser and compile, of the set-up time. A workload that
// does not reach a layer reports 0 for it.
var PerLayer = []Spec{
	{"sat.self_share", "ratio"},
	{"sat.inprocess_share", "ratio"},
	{"sat.cdcl_runs", "count"},
	{"sat.propagations", "count"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.restarts", "count"},
	{"sat.learnts_retained", "count"},
	{"sat.clauses_vivified", "count"},
	{"sat.incremental_solves", "count"},
	{"cnf.self_share", "ratio"},
	{"cnf.vars_eliminated", "count"},
	{"cnf.clauses_subsumed", "count"},
	{"cnf.clauses_strengthened", "count"},
	{"cnf.clauses_blocked", "count"},
	{"cnf.probe_units", "count"},
	{"presolve.self_share", "ratio"},
	{"presolve.checks", "count"},
	{"presolve.discharged", "count"},
	{"presolve.discharged_share", "ratio"},
	{"presolve.hint_lits", "count"},
	{"bitblast.self_share", "ratio"},
	{"bitblast.cnf_vars", "count"},
	{"bitblast.cnf_clauses", "count"},
	{"bitblast.encodings_reused", "count"},
	{"typing.self_share", "ratio"},
	{"vcgen.self_share", "ratio"},
	{"vcgen.term_nodes", "count"},
	{"solver.self_share", "ratio"},
	{"cegis.self_share", "ratio"},
	{"cegis.rounds", "count"},
	{"verify.self_share", "ratio"},
	{"verify.type_assignments", "count"},
	{"verify.queries", "count"},
	{"verify.escalations", "count"},
	{"verify.worker_idle_share", "ratio"},
	{"attrs.self_share", "ratio"},
	{"attrs.calls", "count"},
	{"attrs.checks", "count"},
	{"parser.self_share", "ratio"},
	{"miniir.compile_share", "ratio"},
	{"miniir.pass_share", "ratio"},
	{"miniir.fired", "count"},
	{"miniir.instrs_in", "count"},
	{"miniir.instrs_out", "count"},
	{"miniir.cost_ratio", "ratio"},
	{"go.alloc_mib", "MiB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// counterMetrics maps per-layer metrics onto the verifier's counters:
// the telemetry.Counters names plus the Result fields queries,
// type_assignments and escalations.
var counterMetrics = [][2]string{
	{"sat.cdcl_runs", "cdcl_runs"},
	{"sat.propagations", "propagations"},
	{"sat.conflicts", "conflicts"},
	{"sat.decisions", "decisions"},
	{"sat.restarts", "restarts"},
	{"sat.learnts_retained", "learnts_retained"},
	{"sat.clauses_vivified", "clauses_vivified"},
	{"sat.incremental_solves", "incremental_solves"},
	{"cnf.vars_eliminated", "vars_eliminated"},
	{"cnf.clauses_subsumed", "clauses_subsumed"},
	{"cnf.clauses_strengthened", "clauses_strengthened"},
	{"cnf.clauses_blocked", "clauses_blocked"},
	{"cnf.probe_units", "probe_units"},
	{"presolve.checks", "checks"},
	{"presolve.hint_lits", "hint_lits"},
	{"bitblast.cnf_vars", "cnf_vars"},
	{"bitblast.cnf_clauses", "cnf_clauses"},
	{"bitblast.encodings_reused", "encodings_reused"},
	{"vcgen.term_nodes", "term_nodes_before"},
	{"cegis.rounds", "cegis_rounds"},
	{"verify.type_assignments", "type_assignments"},
	{"verify.queries", "queries"},
	{"verify.escalations", "escalations"},
}

// layerCounts turns raw verifier counters, keyed as in counterMetrics,
// into per-layer metrics.
func layerCounts(raw map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range counterMetrics {
		out[m[0]] = float64(raw[m[1]])
	}
	// Ring refutations are already counted in decided.
	discharged := float64(raw["folded"] + raw["decided"])
	out["presolve.discharged"] = discharged
	out["presolve.discharged_share"] = 0
	if raw["checks"] > 0 {
		out["presolve.discharged_share"] = discharged / float64(raw["checks"])
	}
	return out
}

// selfTimeMetrics maps span categories onto the per-layer metric their
// self time adds to. The pipeline's own spans are read as they are; the
// parse, compile, infer and pass spans are the benchmark's, around its
// calls into those layers.
var selfTimeMetrics = map[string]string{
	"sat":        "sat.self_share",
	"inprocess":  "sat.inprocess_share",
	"preprocess": "cnf.self_share",
	"presolve":   "presolve.self_share",
	"bitblast":   "bitblast.self_share",
	"typing":     "typing.self_share",
	"vcgen":      "vcgen.self_share",
	"solver":     "solver.self_share",
	"cegis":      "cegis.self_share",
	"transform":  "verify.self_share",
	"assignment": "verify.self_share",
	"condition":  "verify.self_share",
	"lint":       "verify.self_share",
	"attrs":      "attrs.self_share",
	"pass":       "miniir.pass_share",
	"parse":      "parser.self_share",
	"compile":    "miniir.compile_share",
}

// setupCategories are the span categories recorded during set-up, whose
// self times are shares of the set-up time rather than of the rounds'.
var setupCategories = map[string]bool{"parse": true, "compile": true}

// Config selects how a workload runs.
type Config struct {
	Seed int64
	// Budget is how long a run measures: rounds repeat until it has passed,
	// and the round under way finishes. At least one round runs (one of
	// each kind when tracing).
	Budget time.Duration
	// Trace alternates untraced and traced rounds. End-to-end metrics come
	// from the untraced ones; self times and the trace overhead need both.
	Trace bool
	// TraceDir, when set with Trace, receives <workload>.json, the Chrome
	// trace of the run.
	TraceDir string
	Size     Size
}

// Size scales a workload's inputs.
type Size struct {
	Transforms int // corpus entries; 0 means all of them
	Funcs      int // functions in the optimizer's generated module
	Rounds     int // rounds of each kind; 0 means as many as Budget allows
	Setups     int // timed set-ups before each round; their median is setup_s
	// Warmup is how long untimed set-ups run before the timed ones.
	Warmup time.Duration
}

var (
	// Full is the size the benchmark measures.
	Full = Size{Funcs: 20000, Setups: 15, Warmup: 250 * time.Millisecond}
	// Toy runs every workload in well under a second.
	Toy = Size{Transforms: 24, Funcs: 200, Rounds: 1, Setups: 1}
)

// Metric is one measured value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Report is the outcome of running one workload.
type Report struct {
	Workload  string
	Attempted int
	Failed    int
	// Failures describes the first failed items.
	Failures []string
	EndToEnd []Metric
	// Samples counts the values each end-to-end timing is taken over.
	Samples  []Metric
	PerLayer []Metric
}

// maxFailures caps Report.Failures.
const maxFailures = 10

// Run sets up a workload and runs its rounds.
func Run(w *Workload, cfg Config) (*Report, error) {
	var tr *telemetry.Tracer
	if cfg.Trace {
		tr = telemetry.New()
	}
	track := tr.NewTrack("alive-perf")

	// A set-up takes about a millisecond, and on a 2-CPU machine its time
	// moved by up to 60% with the host's state from one second to the
	// next, and with whether the CPU had just been idle. So untimed
	// set-ups first keep the CPU busy, and then a batch of timed set-ups
	// runs before every round: setup_s samples the run as the rounds do.
	es := w.inputs(cfg)
	for start := time.Now(); time.Since(start) < cfg.Size.Warmup; {
		w.setup(es, cfg, nil)
	}
	var setups []float64

	// Without the reset the high-water mark also covers whatever ran
	// earlier in this process; a run of one workload has nothing earlier,
	// so a failed reset only matters when several share the process.
	_ = resetPeakRSS()
	kinds := 1
	if cfg.Trace {
		kinds = 2
	}
	var untraced, traced []*roundResult
	first := time.Now()
	for i := 0; ; i++ {
		var inst instance
		for j := 0; j < max(cfg.Size.Setups, 1); j++ {
			start := time.Now()
			inst = w.setup(es, cfg, track)
			setups = append(setups, time.Since(start).Seconds())
		}
		var rr *roundResult
		if cfg.Trace && i%2 == 1 {
			rr = guarded(w.Watchdog, func(ctx context.Context) *roundResult { return inst.round(ctx, tr, track) })
			traced = append(traced, rr)
		} else {
			rr = guarded(w.Watchdog, func(ctx context.Context) *roundResult { return inst.round(ctx, nil, nil) })
			untraced = append(untraced, rr)
		}
		n := i + 1
		if len(rr.failures) > 0 {
			break // the run has failed; one failed round is enough to show it
		}
		if cfg.Size.Rounds > 0 {
			if n == cfg.Size.Rounds*kinds {
				break
			}
			continue
		}
		if n >= kinds && time.Since(first) >= cfg.Budget {
			break
		}
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	rep := &Report{Workload: w.Name}
	counts := map[string][]float64{}
	for _, rr := range append(untraced, traced...) {
		rep.Attempted += rr.attempted
		rep.Failed += len(rr.failures)
		for _, f := range rr.failures {
			if len(rep.Failures) < maxFailures {
				rep.Failures = append(rep.Failures, f)
			}
		}
		for k, v := range rr.counts {
			counts[k] = append(counts[k], v)
		}
	}
	var walls, lat, idle, alloc, gcs []float64
	for _, rr := range untraced {
		walls = append(walls, rr.wall.Seconds())
		idle = append(idle, rr.idle.Seconds()/(float64(w.Clients)*rr.wall.Seconds()))
		alloc = append(alloc, rr.allocMiB)
		gcs = append(gcs, rr.gcCycles)
		for _, d := range rr.items {
			lat = append(lat, float64(d)/1e6)
		}
	}

	e2e := map[string]float64{
		"wall_s":         median(walls),
		"setup_s":        median(setups),
		"latency_p50_ms": percentile(lat, 0.50),
		"latency_p95_ms": percentile(lat, 0.95),
		"peak_rss_mib":   rss / (1 << 20),
	}
	for _, s := range EndToEnd {
		rep.EndToEnd = append(rep.EndToEnd, Metric{s.Name, s.Unit, e2e[s.Name]})
	}
	rep.Samples = []Metric{
		{"wall_s.samples", "count", float64(len(walls))},
		{"setup_s.samples", "count", float64(len(setups))},
		{"latency.samples", "count", float64(len(lat))},
	}

	layer := map[string]float64{
		"verify.worker_idle_share": median(idle),
		"go.alloc_mib":             median(alloc),
		"go.gc_cycles":             median(gcs),
	}
	for k, v := range counts {
		layer[k] = median(v)
	}
	if len(traced) > 0 {
		var twalls []float64
		var clientTime, setupTime float64
		for _, rr := range traced {
			twalls = append(twalls, rr.wall.Seconds())
			clientTime += float64(w.Clients) * rr.wall.Seconds()
		}
		for _, s := range setups {
			setupTime += s
		}
		for cat, d := range selfTimes(tr.Events()) {
			name, ok := selfTimeMetrics[cat]
			if !ok {
				continue
			}
			base := clientTime
			if setupCategories[cat] {
				base = setupTime
			}
			layer[name] += d.Seconds() / base
		}
		layer["trace.overhead_ratio"] = median(twalls) / median(walls)
		if cfg.TraceDir != "" {
			if err := tr.WriteChromeTraceFile(filepath.Join(cfg.TraceDir, w.Name+".json")); err != nil {
				return nil, fmt.Errorf("%s: writing trace: %w", w.Name, err)
			}
		}
	}
	for _, s := range PerLayer {
		// An untraced run prints only what it measured.
		if v, ok := layer[s.Name]; ok || cfg.Trace {
			rep.PerLayer = append(rep.PerLayer, Metric{s.Name, s.Unit, v})
		}
	}
	return rep, nil
}

// guarded runs a round under a cancel-only watchdog: the context the
// round receives is cancelled once limit has passed. It never carries a
// deadline, because under a deadline the verifier retries budget-bound
// queries on a ×4 conflict-budget ladder, which changes the work being
// measured. Items the watchdog cancels count as failed.
func guarded(limit time.Duration, round func(ctx context.Context) *roundResult) *roundResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dog := time.AfterFunc(limit, cancel)
	defer dog.Stop()
	return round(ctx)
}

// roundResult is what one round measured and checked.
type roundResult struct {
	start time.Time
	mem   runtime.MemStats // at the start of the timed region

	wall      time.Duration   // the timed region
	items     []time.Duration // time to each item's result
	attempted int
	failures  []string // one per failed item
	// counts are per-layer metrics that count work.
	counts map[string]float64
	// idle is clients × wall minus the time spent on items; only the
	// corpus workloads, whose clients are verify.RunCorpus's workers,
	// measure it.
	idle     time.Duration
	allocMiB float64
	gcCycles float64
}

// begin opens the timed region. It collects garbage first, so that no
// round pays for an earlier round's garbage or for untimed work.
func (rr *roundResult) begin() {
	runtime.GC()
	runtime.ReadMemStats(&rr.mem)
	rr.start = time.Now()
}

// end closes the timed region.
func (rr *roundResult) end() {
	rr.wall = time.Since(rr.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rr.allocMiB = float64(m.TotalAlloc-rr.mem.TotalAlloc) / (1 << 20)
	rr.gcCycles = float64(m.NumGC - rr.mem.NumGC)
}

func (rr *roundResult) fail(format string, args ...any) {
	rr.failures = append(rr.failures, fmt.Sprintf(format, args...))
}
