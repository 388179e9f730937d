package telemetry

// Counters is the one coherent stats model shared by every layer of the
// verification pipeline. The solver façade, the CDCL core, and the
// CEGIS engine all accumulate into the same struct, the verifier sums
// it per transformation, and the corpus driver sums it per run — so a
// number printed by `alive -v`, a span annotation in a Chrome trace,
// and a metric in BENCH_verify.json are always the same counter read at
// different granularities.
//
// All fields are plain int64s incremented by exactly one goroutine (a
// Solver and its SAT cores are single-threaded); aggregation across
// goroutines happens by value with Add. No atomics, no locks, no
// allocation — accumulating counters costs a few ALU ops per query, so
// they stay on whether or not a trace sink is attached.
type Counters struct {
	// Solver façade, per Check call (CEGIS rounds issue internal Checks,
	// which are counted too).

	// Checks is the number of satisfiability queries seen.
	Checks int64 `json:"checks"`
	// Folded queries were decided by constructor-level constant folding
	// before the presolve ran.
	Folded int64 `json:"folded"`
	// Decided queries were refuted by the polynomial presolve, with no
	// CDCL run: a top-level disequality whose sides normalize to the
	// same polynomial over Z/2^w is unsatisfiable.
	Decided int64 `json:"decided"`
	// CDCLRuns is the number of queries that reached the SAT core.
	CDCLRuns int64 `json:"cdcl_runs"`
	// TermNodesBefore totals the formula DAG sizes of the queries that
	// reached the presolver.
	TermNodesBefore int64 `json:"term_nodes_before"`

	// SAT core totals, summed over every CDCL run.

	// Propagations includes those of failed-literal probing under each
	// query's assumptions (sat.ProbeUnder).
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Restarts     int64 `json:"restarts"`
	// LearnedClauses counts conflict-derived clauses (including learned
	// units).
	LearnedClauses int64 `json:"learned_clauses"`
	// CNFVars and CNFClauses total the SAT core sizes of the CDCL runs
	// (after preprocessing, when it is enabled).
	CNFVars    int64 `json:"cnf_vars"`
	CNFClauses int64 `json:"cnf_clauses"`

	// LBD-tiered learned-clause database of the SAT core, summed over
	// every CDCL run.

	// LBDCore counts learnt clauses that entered the core tier (LBD ≤ 3
	// at learn time or by later improvement).
	LBDCore int64 `json:"lbd_core"`
	// DBReductions counts learned-clause database reductions.
	DBReductions int64 `json:"db_reductions"`

	// CNF preprocessor totals (internal/cnf), summed over every query
	// that reached the clause database.

	// VarsEliminated counts variables removed by bounded variable
	// elimination (including pure literals).
	VarsEliminated int64 `json:"vars_eliminated"`
	// ClausesSubsumed counts clauses deleted by backward subsumption.
	ClausesSubsumed int64 `json:"clauses_subsumed"`
	// ClausesStrengthened counts literals removed by self-subsuming
	// resolution.
	ClausesStrengthened int64 `json:"clauses_strengthened"`
	// ClausesBlocked counts clauses removed by blocked clause
	// elimination.
	ClausesBlocked int64 `json:"clauses_blocked"`
	// ProbeUnits counts the literals failed-literal probing under a
	// query's assumptions (sat.ProbeUnder) found implied.
	ProbeUnits int64 `json:"probe_units"`

	// CEGISRounds counts refinement rounds of the exists-forall engine.
	CEGISRounds int64 `json:"cegis_rounds"`

	// Session totals (internal/solver session.go): every query that
	// reaches the SAT core is a session solve.

	// IncrementalSolves counts CDCL runs answered by a persistent
	// session's shared core (every session solve, warm or cold).
	IncrementalSolves int64 `json:"incremental_solves"`
	// AssumptionLits counts activation literals allocated — one per
	// query a session answers, flipped to retire the query afterwards.
	AssumptionLits int64 `json:"assumption_lits"`
	// EncodingsReused counts Tseitin cache hits during the second and
	// later queries of a session: subterm encodings shared with an
	// earlier query of the same transform instead of re-lowered.
	EncodingsReused int64 `json:"encodings_reused"`
	// LearntsRetained totals, at the start of each warm session solve,
	// the learnt clauses carried over from the session's earlier
	// queries.
	LearntsRetained int64 `json:"learnts_retained"`
}

// counterNames fixes the field order for Each (and therefore for span
// annotations and every rendered listing): façade, SAT core, CEGIS. It
// is the order of fields.
var counterNames = [...]string{
	"checks", "folded", "decided", "cdcl_runs", "term_nodes_before",
	"propagations", "conflicts", "decisions", "restarts", "learned_clauses",
	"cnf_vars", "cnf_clauses", "lbd_core", "db_reductions",
	"vars_eliminated", "clauses_subsumed", "clauses_strengthened",
	"clauses_blocked", "probe_units", "cegis_rounds", "incremental_solves",
	"assumption_lits", "encodings_reused", "learnts_retained",
}

// fields returns pointers to c's counters in counterNames order. The
// pointers stay with the caller, so a Counters on the caller's stack
// stays there: Add, Sub and IsZero allocate nothing.
func (c *Counters) fields() [len(counterNames)]*int64 {
	return [...]*int64{
		&c.Checks, &c.Folded, &c.Decided, &c.CDCLRuns, &c.TermNodesBefore,
		&c.Propagations, &c.Conflicts, &c.Decisions, &c.Restarts, &c.LearnedClauses,
		&c.CNFVars, &c.CNFClauses, &c.LBDCore, &c.DBReductions,
		&c.VarsEliminated, &c.ClausesSubsumed, &c.ClausesStrengthened,
		&c.ClausesBlocked, &c.ProbeUnits, &c.CEGISRounds, &c.IncrementalSolves,
		&c.AssumptionLits, &c.EncodingsReused, &c.LearntsRetained,
	}
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	dst, src := c.fields(), o.fields()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Sub returns c - o, the counter delta between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	var d Counters
	dst, x, y := d.fields(), c.fields(), o.fields()
	for i := range dst {
		*dst[i] = *x[i] - *y[i]
	}
	return d
}

// IsZero reports whether every counter is zero.
func (c Counters) IsZero() bool {
	for _, v := range c.fields() {
		if *v != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every counter in a fixed, documented order using the
// same snake_case names the JSON encoding uses.
func (c Counters) Each(f func(name string, v int64)) {
	for i, v := range c.fields() {
		f(counterNames[i], *v)
	}
}
