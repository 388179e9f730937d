// Session solving: every Solver keeps one CDCL core, one bit-blaster,
// and one staged CNF formula alive across every Check it answers, in the
// MiniSat assumption-interface tradition (Eén & Sörensson). Each query's
// verification condition is lowered to its Tseitin root literal r and
// solved with Solve(r) — the root is never asserted, only assumed. The
// Tseitin definitions themselves are unguarded — each defines a gate as
// a function of its inputs and is globally true — so everything the
// search derives is implied by the clause database alone, independent
// of any assumption: learned clauses, variable activities, saved
// phases, and LBD-core clauses all stay sound and carry from one query
// to the next. Retiring a query is implicit — the next Solve simply
// assumes a different root — which turns CEGIS refinement rounds into
// pure assumption flips over a shared, memoized encoding.
//
// Soundness under preprocessing hinges on frozen variables: before each
// incremental preprocessing round the session freezes every interface
// variable — named problem variables and memoized encoding outputs
// (which include every assumed root) — which are exactly the variables
// a later query's clauses may mention. Variable elimination and
// blocked-clause witnesses are restricted to non-frozen
// (forever-anonymous) variables, so the simplifications stay sound when
// new clauses arrive and core models are exact on every variable the
// verifier reads, with no reconstruction replay.
package solver

import (
	"alive/internal/bitblast"
	"alive/internal/cnf"
	"alive/internal/sat"
	"alive/internal/smt"
	"alive/internal/telemetry"
)

// session is the persistent solving state of a Solver. It is created
// lazily by the first Check that reaches bit-blasting and bound to that
// Check's smt.Builder (hash-consed term pointers key the encoding
// caches, so terms from another builder would silently miss); a Check
// with a different builder discards it and starts over.
type session struct {
	b    *smt.Builder
	core *sat.Solver
	form *cnf.Formula // nil when preprocessing is disabled
	bl   *bitblast.Blaster
	db   bitblast.ClauseDB

	solves      int64 // queries answered by this session
	lastVars    int64 // core var count after the previous load
	lastClauses int64 // core clause count after the previous load
	probed      int   // first core variable no probe of this session saw
}

func (s *Solver) initSession(b *smt.Builder) {
	core := sat.New()
	se := &session{b: b, core: core}
	var db bitblast.ClauseDB = core
	if !s.DisablePreprocess {
		se.form = cnf.NewFormula()
		db = se.form
	}
	se.db = db
	se.bl = bitblast.New(db)
	s.sess = se
}

// lowerStopped lowers formula into bl and returns its literal,
// converting the bit-blaster's ErrStopped panic into stopped=true; any
// other panic propagates. A partial lowering leaves only unguarded
// Tseitin definitions behind, each individually satisfiable, so the
// session stays consistent.
func lowerStopped(bl *bitblast.Blaster, formula *smt.Term) (l sat.Lit, stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == bitblast.ErrStopped {
				stopped = true
				return
			}
			panic(r)
		}
	}()
	return bl.Lit(formula), false
}

// termSize counts the distinct DAG nodes under t, memoized across
// calls via sizes (shared nodes are counted once per root they appear
// under, which is fine for ranking).
func termSize(t *smt.Term, sizes map[*smt.Term]int) int {
	if n, ok := sizes[t]; ok {
		return n
	}
	n := 1
	for _, a := range t.Args {
		n += termSize(a, sizes)
	}
	sizes[t] = n
	return n
}

// Kind sets hasKind tests for, one bit per smt.Kind.
const (
	divRemKinds     uint64 = 1<<smt.KBVUdiv | 1<<smt.KBVSdiv | 1<<smt.KBVUrem | 1<<smt.KBVSrem
	rightShiftKinds uint64 = 1<<smt.KBVLshr | 1<<smt.KBVAshr
)

// hasKind reports whether a node of a kind in the set kinds appears
// anywhere in the term DAG rooted at t (memoized per call on the
// hash-consed nodes).
func hasKind(t *smt.Term, kinds uint64) bool {
	seen := map[*smt.Term]bool{}
	var walk func(*smt.Term) bool
	walk = func(t *smt.Term) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if kinds&(1<<t.Kind) != 0 {
			return true
		}
		for _, a := range t.Args {
			if walk(a) {
				return true
			}
		}
		return false
	}
	return walk(t)
}

// firstDivRem returns the first division or remainder node in the DAG
// rooted at t — only signed ones when signedOnly is set — or nil.
func firstDivRem(t *smt.Term, signedOnly bool, seen map[*smt.Term]bool) *smt.Term {
	if seen[t] {
		return nil
	}
	seen[t] = true
	switch t.Kind {
	case smt.KBVSdiv, smt.KBVSrem:
		return t
	case smt.KBVUdiv, smt.KBVUrem:
		if !signedOnly {
			return t
		}
	}
	for _, a := range t.Args {
		if n := firstDivRem(a, signedOnly, seen); n != nil {
			return n
		}
	}
	return nil
}

// slicePlan builds the assumption sets the session will solve for one
// query. When the caller marked the query as a miter, a formula with a
// sliceable disequality ψ ∧ a ≠ b becomes one
// sub-query per bit of the chosen disequality, [ψ, a_i ≠ b_i]: a ≠ b
// holds iff some bit differs, so the query is Sat iff some sub-query
// is Sat, and a model of any sub-query is a model of the whole
// formula. Every other formula is one monolithic [root] assumption
// set. Slicing is where the session earns its keep on equivalence
// proofs, and which disequality to slice depends on the circuit:
//
//   - Adder, multiplier and left-shift miters slice the miter itself,
//     least-significant bit first — bit i's cone is a fraction of the
//     whole, and the equivalence lemmas CDCL learns about shared
//     internal nodes while proving bit i are already in the clause
//     database when bit i+1 is assumed.
//   - A miter whose disequality holds a right shift (lshr, ashr) is
//     sliced most-significant bit first: a right shift's output bit i
//     reads only input bits i and above, so its small cones are at
//     the top.
//   - Division and remainder circuits get no such gradient from the
//     output side (a quotient/remainder bit's cone is most of the
//     subtract chain), but their queries carry divisor-nonzero side
//     conditions ¬(d = 0), and slicing the smallest disequality
//     instead case-splits on which divisor bit is set — each sub-query
//     pins a divisor magnitude, which localizes the long division,
//     most-significant (near-trivial quotient) cases first. Signed
//     division and remainder refine this into a sign-aware split (see
//     the comment at the split below): magnitude bits mean the
//     opposite thing for negative divisors.
func slicePlan(b *smt.Builder, bl *bitblast.Blaster, formula *smt.Term, vcLit sat.Lit, miter bool) (plan [][]sat.Lit, stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == bitblast.ErrStopped {
				stopped = true
				return
			}
			panic(r)
		}
	}()
	if !miter {
		return [][]sat.Lit{{vcLit}}, false
	}
	cs := conjuncts(formula)
	sizes := map[*smt.Term]int{}
	small, large := -1, -1
	for i, c := range cs {
		if c.Kind != smt.KNot {
			continue
		}
		eq := c.Args[0]
		if eq.Kind != smt.KEq || eq.Args[0].IsBool() || eq.Args[0].Width < 2 {
			continue
		}
		sz := termSize(eq, sizes)
		if small == -1 || sz <= sizes[cs[small].Args[0]] {
			small = i
		}
		if large == -1 || sz > sizes[cs[large].Args[0]] {
			large = i
		}
	}
	if large == -1 {
		return [][]sat.Lit{{vcLit}}, false
	}
	divrem := hasKind(formula, divRemKinds)
	chosen := large
	if divrem {
		chosen = small
	}
	rest := make([]*smt.Term, 0, len(cs)-1)
	for i, c := range cs {
		if i != chosen {
			rest = append(rest, c)
		}
	}
	ctx := b.True()
	if len(rest) > 0 {
		ctx = b.And(rest...)
	}
	ctxLit := bl.Lit(ctx)

	// When the division is signed, a plain bit split of d ≠ 0 pins the
	// divisor's magnitude only for positive d: every negative divisor
	// shares the set sign bit, so half the space lands in one sub-query
	// and the abs-value datapath stays unconstrained there. Splitting
	// sign-first fixes that — positive cases pin a set bit of d (= a set
	// bit of |d|), negative cases pin a CLEAR bit of d (= a set bit of
	// ¬d ≈ |d|), and d = -1, the one negative value with no clear bit,
	// gets its own fully-pinned case. The cases overlap (several bits
	// may qualify) but their union is exactly d ≠ 0, which keeps the
	// Sat-iff-some-sub-query-Sat invariant; the split replaces the
	// removed disequality, so it is only sound when the compared-against
	// side really is the constant zero.
	if divrem {
		if sd := firstDivRem(formula, true, map[*smt.Term]bool{}); sd != nil {
			eq := cs[chosen].Args[0]
			div, rhs := eq.Args[0], eq.Args[1]
			if div.Kind == smt.KBVConst {
				div, rhs = rhs, div
			}
			w := div.Width
			if w >= 3 && rhs.Kind == smt.KBVConst && rhs.Val.IsZero() {
				one := b.ConstUint(1, 1)
				zero := b.ConstUint(1, 0)
				bit := func(i int, set bool) sat.Lit {
					v := zero
					if set {
						v = one
					}
					return bl.Lit(b.Eq(b.Extract(div, i, i), v))
				}
				sign := bit(w-1, true)
				plan = make([][]sat.Lit, 0, 2*w-1)
				for i := w - 2; i >= 0; i-- {
					plan = append(plan, []sat.Lit{ctxLit, sign.Not(), bit(i, true)})
				}
				for i := w - 2; i >= 0; i-- {
					plan = append(plan, []sat.Lit{ctxLit, sign, bit(i, false)})
				}
				minusOne := []sat.Lit{ctxLit, sign}
				for i := 0; i < w-1; i++ {
					minusOne = append(minusOne, bit(i, true))
				}
				plan = append(plan, minusOne)
				return plan, false
			}
		}
	}
	msbFirst := divrem || hasKind(cs[chosen].Args[0], rightShiftKinds)
	diffs := bitDiffs(b, bl, cs[chosen].Args[0], msbFirst)
	if len(diffs) == 0 {
		// Every bit folded to "never differs": the disequality — and so
		// the formula — is unsatisfiable outright. One contradictory
		// sub-query keeps the solve loop's shape (it fails at the
		// assumption with zero conflicts).
		return [][]sat.Lit{{ctxLit, bl.Lit(b.False())}}, false
	}
	plan = make([][]sat.Lit, 0, len(diffs))
	for _, d := range diffs {
		plan = append(plan, []sat.Lit{ctxLit, d})
	}
	return plan, false
}

// bitDiffs lowers one ¬(a_i = b_i) literal per bit of the disequality
// eq, most-significant first when msbFirst is set, skipping bits the
// builder folds to "never differs".
func bitDiffs(b *smt.Builder, bl *bitblast.Blaster, eq *smt.Term, msbFirst bool) []sat.Lit {
	lhs, rhs := eq.Args[0], eq.Args[1]
	lits := make([]sat.Lit, 0, lhs.Width)
	for n := 0; n < lhs.Width; n++ {
		i := n
		if msbFirst {
			i = lhs.Width - 1 - n
		}
		d := b.Not(b.Eq(b.Extract(lhs, i, i), b.Extract(rhs, i, i)))
		if d == b.False() {
			continue
		}
		lits = append(lits, bl.Lit(d))
	}
	return lits
}

// solve is the back half of Check: presolve already ran, so the query
// is encoded into the session's shared databases and its root literal
// is solved under assumption.
func (s *Solver) solve(qspan *telemetry.Span, b *smt.Builder, formula *smt.Term) Result {
	if s.sess == nil || s.sess.b != b {
		s.initSession(b)
	}
	se := s.sess
	warm := se.solves > 0

	core, form, bl := se.core, se.form, se.bl
	// A session may outlive the caller that opened it (verify.Checker
	// keeps one per type assignment across checks), so each query polls
	// its own caller's flag, not the one current at session creation.
	core.Stop, bl.Stop = s.Stop, s.Stop

	bspan := qspan.Child("bitblast", "bitblast")
	hitsBefore := bl.Hits
	vcLit, stopped := lowerStopped(bl, formula)
	if stopped {
		bspan.End()
		return s.stopped()
	}
	plan, planStopped := slicePlan(b, bl, formula, vcLit, s.Miter)
	if planStopped {
		bspan.End()
		return s.stopped()
	}
	if warm {
		s.Stats.EncodingsReused += bl.Hits - hitsBefore
	}
	if bspan != nil {
		bst := bl.EncodeStats()
		bspan.SetInt("cnf_vars", int64(se.db.NumVars()))
		bspan.SetInt("cnf_clauses", int64(se.db.NumClauses()))
		bspan.SetInt("gates", int64(bst.Gates))
		bspan.SetInt("bool_terms", int64(bst.BoolTerms))
		bspan.SetInt("bv_terms", int64(bst.BVTerms))
		bspan.SetInt("encoding_hits", bl.Hits-hitsBefore)
		bspan.End()
	}

	if form != nil {
		// Interface variables — named inputs and memoized encoding
		// outputs, including every root literal a query may assume — must
		// survive elimination because future clauses may mention them;
		// everything else is anonymous forever and fair game. Freezing is
		// idempotent, so re-freezing the accumulated set each round is
		// just a cache walk.
		bl.EachInterfaceVar(form.Freeze)
		form.Freeze(vcLit.Var())
		ppspan := qspan.Child("preprocess", "preprocess")
		pre := cnf.Preprocess(form, cnf.Options{Stop: s.Stop})
		pst := pre.Stats
		s.Stats.VarsEliminated += pst.VarsEliminated
		s.Stats.ClausesSubsumed += pst.ClausesSubsumed
		s.Stats.ClausesStrengthened += pst.ClausesStrengthened
		s.Stats.ClausesBlocked += pst.ClausesBlocked
		if ppspan != nil {
			ppspan.SetInt("clauses_in", int64(pst.ClausesIn))
			ppspan.SetInt("clauses_out", int64(pst.ClausesOut))
			ppspan.SetInt("rounds", pst.Rounds)
			ppspan.SetInt("vars_eliminated", pst.VarsEliminated)
			ppspan.SetInt("clauses_subsumed", pst.ClausesSubsumed)
			ppspan.SetInt("clauses_strengthened", pst.ClausesStrengthened)
			ppspan.SetInt("clauses_blocked", pst.ClausesBlocked)
			ppspan.End()
		}
		if pre.Unsat {
			// The base database is satisfiable by construction (compute
			// every gate from its inputs), so a root refutation can only
			// mean an unsound rewrite; fail loudly rather than corrupt
			// verdicts. verify's panic isolation turns this into a
			// structured Unknown.
			panic("solver: incremental session base formula became unsatisfiable")
		}
		if s.Stop.Stopped() {
			return s.stopped()
		}
		form.LoadDelta(core)
	}

	// Query boundary: restart-policy quality averages describe one query
	// in a fresh solver; give the warm core the same baseline.
	core.ResetRestartStats()
	s.Stats.CDCLRuns++
	s.Stats.CNFVars += int64(core.NumVars()) - se.lastVars
	s.Stats.CNFClauses += int64(core.NumClauses()) - se.lastClauses
	se.lastVars = int64(core.NumVars())
	se.lastClauses = int64(core.NumClauses())

	cspan := qspan.Child("cdcl", "sat")
	// The warm core outlives any one query, so the sampling hook is
	// refreshed each time rather than pinned at session creation.
	core.OnSample = s.OnSample

	// Solve the plan: a bit-sliced plan is Unsat only if every sub-query
	// is, and ends at the first Sat (its model satisfies the whole
	// formula) or Unknown. Slices run in plan order under one query-wide
	// conflict budget: each refuted slice leaves its learnts — including
	// the guarded (¬ctx ∨ ¬d_i) summary — behind for its neighbours, so
	// later slices start from an already-constrained search space.
	var delta telemetry.Counters
	st := Unsat
	remaining := s.MaxConflicts
	solveOne := func(assumps []sat.Lit, cap int64) Status {
		if se.solves > 0 {
			s.Stats.LearntsRetained += int64(core.NumLearnts())
		}
		s.Stats.IncrementalSolves++
		s.Stats.AssumptionLits += int64(len(assumps))
		// Snapshot before probing, so this solve's propagations include
		// the probes'. Probing learns nothing and never conflicts in
		// search, so conflicts, decisions and the budget are unmoved.
		before := coreCounters(core)
		// Failed-literal probing under this solve's assumptions. The
		// preprocessor only ever sees the query root as a free variable,
		// never as an asserted unit, so only probing under the
		// assumptions can use it: it recovers each implied literal as a
		// guarded clause (¬assumps ∨ u) the search then propagates at
		// assumption level, and refutes outright — at zero conflicts —
		// the queries whose root alone propagates to a conflict.
		// Bit-sliced plans skip it: their sub-queries lean on saved
		// phases and learnt locality from the neighbouring slices, which
		// broad probe-derived clauses perturb more than they help.
		// Variables an earlier probe of this session already saw are
		// skipped, so a warm query probes only what it added.
		if len(plan) == 1 {
			probed, feasible := core.ProbeUnder(assumps, se.probed)
			se.probed = core.NumVars() + 1
			negCtx := make([]sat.Lit, len(assumps), len(assumps)+1)
			for i, a := range assumps {
				negCtx[i] = a.Not()
			}
			if !feasible {
				core.AddClause(negCtx...)
			} else {
				for _, l := range probed {
					core.AddClause(append(negCtx, l.Not())...)
				}
				s.Stats.ProbeUnits += int64(len(probed))
			}
		}
		core.MaxConflicts = cap
		r := core.Solve(assumps...)
		se.solves++
		d := coreCounters(core).Sub(before)
		delta.Add(d)
		if s.MaxConflicts > 0 {
			remaining -= d.Conflicts
		}
		if r == Unsat && !core.Ok() {
			// Unsat must come from the assumptions, never from the always-
			// satisfiable base; see the pre.Unsat comment above.
			panic("solver: incremental session base formula became unsatisfiable")
		}
		return r
	}
	for i, assumps := range plan {
		if s.Stop.Stopped() {
			s.sample()
			st = Unknown
			break
		}
		if s.MaxConflicts > 0 && remaining <= 0 && i > 0 {
			st = Unknown
			break
		}
		st = solveOne(assumps, remaining)
		if st != Unsat {
			break
		}
	}
	s.Stats.Add(delta)
	if cspan != nil {
		cspan.SetAttr("status", st.String())
		cspan.SetInt("assumption_solves", int64(len(plan)))
		cspan.SetInt("propagations", delta.Propagations)
		cspan.SetInt("conflicts", delta.Conflicts)
		cspan.SetInt("decisions", delta.Decisions)
		cspan.SetInt("restarts", delta.Restarts)
		cspan.SetInt("learned_clauses", delta.LearnedClauses)
		cspan.SetInt("learnts_retained", int64(core.NumLearnts()))
		cspan.End()
	}

	res := Result{Status: st, Conflicts: delta.Conflicts, Clauses: core.NumClauses(), Rounds: 1}
	switch st {
	case Sat:
		// Frozen variables are exact in the core model — elimination
		// skipped them and blocked-clause witnesses exclude them — and
		// every variable the verifier reads is frozen, so no
		// reconstruction replay is needed.
		res.Model = s.extractModel(bl, collectVars(formula), core.ValueOf)
	case Unknown:
		if s.Stop.Stopped() || core.Interrupted() {
			res.Cause = CauseStopped
		} else {
			res.Cause = CauseConflictBudget
		}
	}
	return res
}

// sample hands OnSample one snapshot of the session core.
func (s *Solver) sample() {
	if s.OnSample != nil {
		s.OnSample(s.sess.core.Sample())
	}
}

// stopped ends a query the StopFlag cut short before its core solve.
// Like sat.Solver.Solve stopped at entry, it takes one core sample, so
// a deadline that lands in bit-blasting or preprocessing still leaves
// one behind.
func (s *Solver) stopped() Result {
	s.sample()
	return Result{Status: Unknown, Cause: CauseStopped, Rounds: 1}
}

// coreCounters snapshots the cumulative counters of the shared CDCL
// core, so each solve can report only its own work as a difference.
func coreCounters(core *sat.Solver) telemetry.Counters {
	return telemetry.Counters{
		Propagations:   core.Propagations(),
		Conflicts:      core.Conflicts(),
		Decisions:      core.Decisions(),
		Restarts:       core.Restarts(),
		LearnedClauses: core.Learned(),
		LBDCore:        core.LBDCore(),
		DBReductions:   core.DBReductions(),
	}
}
