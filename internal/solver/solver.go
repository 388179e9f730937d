// Package solver is the decision-procedure façade used by the verifier:
// quantifier-free bitvector satisfiability by bit-blasting to CDCL SAT,
// plus an exists-forall engine (counterexample-guided instantiation) for
// the single quantifier alternation that source-template undef values
// introduce into Alive's correctness conditions.
package solver

import (
	"alive/internal/absint"
	"alive/internal/bitblast"
	"alive/internal/bv"
	"alive/internal/faultinject"
	"alive/internal/sat"
	"alive/internal/smt"
	"alive/internal/telemetry"
)

// Status mirrors the SAT result for formula-level queries.
type Status = sat.Status

// Re-exported statuses.
const (
	Unknown = sat.Unknown
	Sat     = sat.Sat
	Unsat   = sat.Unsat
)

// UnknownCause says why a query came back Unknown.
type UnknownCause int

// Unknown causes, ordered from benign to structural.
const (
	// CauseNone: the query did not return Unknown.
	CauseNone UnknownCause = iota
	// CauseConflictBudget: a SAT search exhausted MaxConflicts.
	CauseConflictBudget
	// CauseStopped: the Stop flag tripped (deadline or cancellation).
	CauseStopped
	// CauseRounds: CEGIS refinement hit MaxRounds without converging.
	CauseRounds
)

func (c UnknownCause) String() string {
	switch c {
	case CauseConflictBudget:
		return "conflict-budget"
	case CauseStopped:
		return "stopped"
	case CauseRounds:
		return "cegis-rounds"
	}
	return "none"
}

// Result is the outcome of a satisfiability query. Model is non-nil only
// for Sat. It assigns every variable appearing in the assertion terms as
// passed to Check; variables a caller built but that construction-time
// simplification erased before the assertion terms were formed never
// reach the solver and are absent — read models through smt.Model.BV /
// smt.Model.Bool, which default absent variables to zero/false (a valid
// completion, since a formula that simplified them away is satisfied for
// every value they could take).
type Result struct {
	Status Status
	Model  *smt.Model
	// Cause classifies Unknown results (CauseNone otherwise).
	Cause UnknownCause
	// Stats
	Conflicts int64
	Clauses   int
	Rounds    int // CEGIS refinement rounds (1 for plain Check)
}

// Solver holds per-query configuration. The zero value is usable.
type Solver struct {
	// MaxConflicts bounds each SAT call; <= 0 means unbounded.
	MaxConflicts int64
	// MaxRounds bounds CEGIS refinement; <= 0 defaults to 10000.
	MaxRounds int
	// Stop, when non-nil, is shared with the bit-blaster and the SAT core:
	// tripping it makes every in-flight query return Unknown with
	// CauseStopped promptly.
	Stop *sat.StopFlag
	// DisablePresolve turns the ring presolve off: every query goes
	// straight to bit-blasting (the -presolve=off escape hatch and a
	// leave-one-out leg of the ablate experiment).
	DisablePresolve bool
	// DisablePreprocess turns the CNF preprocessor off: bit-blasted
	// clauses stream straight into the session's CDCL core instead of
	// being staged, simplified (subsumption, variable elimination,
	// blocked clauses), and loaded (the -preprocess=off escape hatch and
	// a leave-one-out leg of the ablate experiment).
	DisablePreprocess bool
	// Miter marks the next queries as output-equivalence obligations,
	// ψ ∧ src ≠ tgt: the session may then decompose the top-level
	// disequality into per-bit sub-queries solved as assumption flips
	// (see slicePlan). Equisatisfiable for any formula, but only worth
	// it when refuting the disequality is the bulk of the proof, so the
	// caller flips this per query.
	Miter bool
	// Stats accumulates the telemetry counters — presolver outcomes, SAT
	// core work, CNF sizes, CEGIS rounds — across every query this
	// Solver answers. Always on; plain int64 adds, no sink required.
	Stats telemetry.Counters
	// Span, when non-nil, is the parent under which Check records
	// presolve / bitblast / cdcl child spans and CheckExistsForall
	// records cegis-round spans. Nil (the default) skips all span
	// bookkeeping at nil-receiver cost.
	Span *telemetry.Span
	// OnSample, when non-nil, receives the session core's search
	// snapshots at restart boundaries and Unknown exits
	// (sat.Solver.OnSample), plus one snapshot when the Stop flag ends a
	// query in bit-blasting or preprocessing, before its core solve. The
	// observability layer uses it to fill per-query sample rings and
	// live gauges; nil costs one pointer test per restart.
	OnSample func(sat.SampleStats)

	// sess is the lazily created solving session (nil until the first
	// query that reaches bit-blasting).
	sess *session
}

// collectVars gathers variable terms of a formula keyed by name.
func collectVars(ts ...*smt.Term) map[string]*smt.Term {
	vars := map[string]*smt.Term{}
	for _, t := range ts {
		for _, v := range t.Vars() {
			vars[v.Name] = v
		}
	}
	return vars
}

// defaultModel assigns zero/false to every variable of the assertions,
// a valid completion for a formula that holds under all assignments.
func defaultModel(assertions []*smt.Term) *smt.Model {
	m := smt.NewModel()
	for name, v := range collectVars(assertions...) {
		if v.IsBool() {
			m.Bools[name] = false
		} else {
			m.BVs[name] = bv.Zero(v.Width)
		}
	}
	return m
}

// conjuncts returns the top-level conjuncts of a formula.
func conjuncts(t *smt.Term) []*smt.Term {
	if t.Kind == smt.KAnd {
		return t.Args
	}
	return []*smt.Term{t}
}

// Check determines satisfiability of the conjunction of the assertions.
//
// Unless DisablePresolve is set, a polynomial-normalization presolve
// (absint.RingEqual) runs first and refutes, with no CDCL run, a query
// with a top-level disequality whose sides are the same function of the
// ring Z/2^w.
//
// A query that survives presolve is answered by the Solver's session
// (session.go): one CDCL core, bit-blaster and staged CNF shared by
// every query this Solver answers, each query lowered to its Tseitin
// root literal and solved under assumption, so a lone query is a
// one-query session. Unless DisablePreprocess is set, the bit-blasted
// clauses are staged in a cnf.Formula and statically simplified
// (subsumption, self-subsuming resolution, bounded variable
// elimination, blocked clause elimination) before they load into the
// core. A query built on a different smt.Builder than the previous one
// restarts the session.
func (s *Solver) Check(b *smt.Builder, assertions ...*smt.Term) Result {
	formula := b.And(assertions...)
	s.Stats.Checks++
	if formula.IsTrue() {
		// The conjunction simplified to a tautology, so any assignment
		// satisfies it; honor the Model contract by assigning defaults to
		// every variable of the original assertions.
		s.Stats.Folded++
		return Result{Status: Sat, Model: defaultModel(assertions), Rounds: 1}
	}
	if formula.IsFalse() {
		s.Stats.Folded++
		return Result{Status: Unsat, Rounds: 1}
	}
	faultinject.Fire(faultinject.SitePresolve, s.Stop)
	if s.Stop.Stopped() {
		return Result{Status: Unknown, Cause: CauseStopped, Rounds: 1}
	}

	qspan := s.Span.Child("smt-check", "solver")
	defer qspan.End()

	if !s.DisablePresolve {
		pspan := qspan.Child("presolve", "presolve")
		s.Stats.TermNodesBefore += int64(formula.Size())
		// A top-level conjunct ¬(u = v) whose sides normalize to the same
		// polynomial over Z/2^w denies a ring identity, so the whole
		// conjunction is unsatisfiable. This discharges the value-equality
		// obligations of the reassociation transforms (a+a·b = a·(b+1),
		// x·(-y) = -(x·y), …) whose multiplier circuits are the most
		// conflict-expensive CNF the corpus produces.
		for _, cj := range conjuncts(formula) {
			if cj.Kind != smt.KNot {
				continue
			}
			if eq := cj.Args[0]; eq.Kind == smt.KEq && absint.RingEqual(eq.Args[0], eq.Args[1]) {
				s.Stats.Decided++
				pspan.SetAttr("outcome", "ring-refuted")
				pspan.End()
				return Result{Status: Unsat, Rounds: 1}
			}
		}
		pspan.SetAttr("outcome", "pass-through")
		pspan.End()
	}

	return s.solve(qspan, b, formula)
}

func (s *Solver) extractModel(bl *bitblast.Blaster, vars map[string]*smt.Term, value func(v int) bool) *smt.Model {
	m := smt.NewModel()
	for name, v := range vars {
		if v.IsBool() {
			m.Bools[name] = bl.BoolVarValue(name, value)
		} else {
			m.BVs[name] = bl.BVVarValue(name, v.Width, value)
		}
	}
	return m
}

// CheckExistsForall decides ∃x ∀y: body, where y ranges over the variables
// named in forallVars and x over every other variable of body. On Sat the
// model assigns the existential variables. The procedure is
// counterexample-guided instantiation: candidate y-values are accumulated
// and the synthesis formula is re-solved until either no x survives
// (Unsat) or an x defeats the verifier (Sat).
func (s *Solver) CheckExistsForall(b *smt.Builder, body *smt.Term, forallVars []*smt.Term) Result {
	if len(forallVars) == 0 {
		return s.Check(b, body)
	}
	isForall := map[string]*smt.Term{}
	for _, y := range forallVars {
		isForall[y.Name] = y
	}
	existVars := map[string]*smt.Term{}
	for name, v := range collectVars(body) {
		if _, ok := isForall[name]; !ok {
			existVars[name] = v
		}
	}

	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}

	// Initial instantiations: all-zeros and all-ones.
	candidates := []map[string]*smt.Term{
		instantiation(b, forallVars, func(v *smt.Term) *smt.Term {
			if v.IsBool() {
				return b.False()
			}
			return b.ConstUint(v.Width, 0)
		}),
		instantiation(b, forallVars, func(v *smt.Term) *smt.Term {
			if v.IsBool() {
				return b.True()
			}
			return b.BVNot(b.ConstUint(v.Width, 0))
		}),
	}

	// CEGIS rounds are traced as children of the condition span; the
	// synthesis/verification SMT checks inside each round nest under the
	// round span via s.Span.
	outer := s.Span
	defer func() { s.Span = outer }()

	totalConflicts := int64(0)
	for round := 1; round <= maxRounds; round++ {
		faultinject.Fire(faultinject.SiteCEGIS, s.Stop)
		if s.Stop.Stopped() {
			return Result{Status: Unknown, Cause: CauseStopped, Conflicts: totalConflicts, Rounds: round}
		}
		s.Stats.CEGISRounds++
		rspan := outer.Child("cegis-round", "cegis")
		rspan.SetInt("round", int64(round))
		s.Span = rspan
		// Synthesis: find x satisfying body under every candidate y.
		parts := make([]*smt.Term, len(candidates))
		for i, c := range candidates {
			parts[i] = b.Substitute(body, c)
		}
		synth := s.Check(b, parts...)
		totalConflicts += synth.Conflicts
		if synth.Status != Sat {
			rspan.End()
			return Result{Status: synth.Status, Cause: synth.Cause, Conflicts: totalConflicts, Rounds: round}
		}
		// Candidate x: complete the model over all existential vars.
		xSub := map[string]*smt.Term{}
		xModel := smt.NewModel()
		for name, v := range existVars {
			if v.IsBool() {
				val := synth.Model.Bool(name)
				xSub[name] = b.Bool(val)
				xModel.Bools[name] = val
			} else {
				val := synth.Model.BV(name, v.Width)
				xSub[name] = b.Const(val)
				xModel.BVs[name] = val
			}
		}
		// Verification: does some y defeat x? Check ¬body[x].
		verify := s.Check(b, b.Not(b.Substitute(body, xSub)))
		totalConflicts += verify.Conflicts
		rspan.End()
		switch verify.Status {
		case Unsat:
			return Result{Status: Sat, Model: xModel, Conflicts: totalConflicts, Rounds: round}
		case Unknown:
			return Result{Status: Unknown, Cause: verify.Cause, Conflicts: totalConflicts, Rounds: round}
		}
		// Counterexample y*: add as a new instantiation.
		cand := map[string]*smt.Term{}
		for _, y := range forallVars {
			if y.IsBool() {
				cand[y.Name] = b.Bool(verify.Model.Bool(y.Name))
			} else {
				cand[y.Name] = b.Const(verify.Model.BV(y.Name, y.Width))
			}
		}
		candidates = append(candidates, cand)
	}
	return Result{Status: Unknown, Cause: CauseRounds, Conflicts: totalConflicts, Rounds: maxRounds}
}

func instantiation(b *smt.Builder, vars []*smt.Term, f func(v *smt.Term) *smt.Term) map[string]*smt.Term {
	m := map[string]*smt.Term{}
	for _, v := range vars {
		m[v.Name] = f(v)
	}
	return m
}
