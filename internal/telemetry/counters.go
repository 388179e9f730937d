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

// counterFields fixes the field order for Each (and therefore for span
// annotations and every rendered listing): façade, SAT core, CEGIS.
var counterFields = []struct {
	name string
	get  func(*Counters) *int64
}{
	{"checks", func(c *Counters) *int64 { return &c.Checks }},
	{"folded", func(c *Counters) *int64 { return &c.Folded }},
	{"decided", func(c *Counters) *int64 { return &c.Decided }},
	{"cdcl_runs", func(c *Counters) *int64 { return &c.CDCLRuns }},
	{"term_nodes_before", func(c *Counters) *int64 { return &c.TermNodesBefore }},
	{"propagations", func(c *Counters) *int64 { return &c.Propagations }},
	{"conflicts", func(c *Counters) *int64 { return &c.Conflicts }},
	{"decisions", func(c *Counters) *int64 { return &c.Decisions }},
	{"restarts", func(c *Counters) *int64 { return &c.Restarts }},
	{"learned_clauses", func(c *Counters) *int64 { return &c.LearnedClauses }},
	{"cnf_vars", func(c *Counters) *int64 { return &c.CNFVars }},
	{"cnf_clauses", func(c *Counters) *int64 { return &c.CNFClauses }},
	{"lbd_core", func(c *Counters) *int64 { return &c.LBDCore }},
	{"db_reductions", func(c *Counters) *int64 { return &c.DBReductions }},
	{"vars_eliminated", func(c *Counters) *int64 { return &c.VarsEliminated }},
	{"clauses_subsumed", func(c *Counters) *int64 { return &c.ClausesSubsumed }},
	{"clauses_strengthened", func(c *Counters) *int64 { return &c.ClausesStrengthened }},
	{"clauses_blocked", func(c *Counters) *int64 { return &c.ClausesBlocked }},
	{"probe_units", func(c *Counters) *int64 { return &c.ProbeUnits }},
	{"cegis_rounds", func(c *Counters) *int64 { return &c.CEGISRounds }},
	{"incremental_solves", func(c *Counters) *int64 { return &c.IncrementalSolves }},
	{"assumption_lits", func(c *Counters) *int64 { return &c.AssumptionLits }},
	{"encodings_reused", func(c *Counters) *int64 { return &c.EncodingsReused }},
	{"learnts_retained", func(c *Counters) *int64 { return &c.LearntsRetained }},
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	for _, f := range counterFields {
		*f.get(c) += *f.get(&o)
	}
}

// Sub returns c - o, the counter delta between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	var d Counters
	for _, f := range counterFields {
		*f.get(&d) = *f.get(&c) - *f.get(&o)
	}
	return d
}

// IsZero reports whether every counter is zero.
func (c Counters) IsZero() bool {
	for _, f := range counterFields {
		if *f.get(&c) != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every counter in a fixed, documented order using the
// same snake_case names the JSON encoding uses.
func (c Counters) Each(f func(name string, v int64)) {
	for _, fld := range counterFields {
		f(fld.name, *fld.get(&c))
	}
}
