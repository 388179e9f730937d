package cnf

import (
	"math/rand"
	"testing"

	"alive/internal/sat"
)

func lit(v int) sat.Lit {
	if v < 0 {
		return sat.MkLit(-v, true)
	}
	return sat.MkLit(v, false)
}

// newFormula builds a formula with n variables and the given clauses
// (DIMACS-style signed ints).
func newFormula(n int, clauses ...[]int) *Formula {
	f := NewFormula()
	for i := 0; i < n; i++ {
		f.NewVar()
	}
	for _, c := range clauses {
		lits := make([]sat.Lit, len(c))
		for i, v := range c {
			lits[i] = lit(v)
		}
		f.AddClause(lits...)
	}
	return f
}

func TestAddClauseNormalization(t *testing.T) {
	f := newFormula(3)
	if !f.AddClause(lit(1), lit(1), lit(2)) || f.NumClauses() != 1 {
		t.Fatalf("duplicate literal not collapsed: %d clauses", f.NumClauses())
	}
	if !f.AddClause(lit(1), lit(-1)) || f.NumClauses() != 1 {
		t.Fatal("tautology not dropped")
	}
	if !f.AddClause(lit(3)) || f.value[3] != 1 {
		t.Fatal("unit not absorbed into the root assignment")
	}
	if !f.AddClause(lit(-3), lit(2)) {
		t.Fatal("clause with one false literal must stay satisfiable")
	}
	if f.value[2] != 1 {
		t.Fatal("stripping the false literal should leave a unit")
	}
	if f.AddClause(lit(-2), lit(-3)) || f.Ok() {
		t.Fatal("clause false under the root assignment must refute")
	}
}

func TestSaturationRefutes(t *testing.T) {
	// 1; ¬1 ∨ 2; ¬2 — unit propagation alone refutes.
	f := newFormula(2, []int{1}, []int{-1, 2}, []int{-2})
	res := Preprocess(f, Options{})
	if !res.Unsat {
		t.Fatal("saturation should refute")
	}
}

func TestSubsumption(t *testing.T) {
	f := newFormula(3, []int{1, 2}, []int{1, 2, 3})
	res := Preprocess(f, Options{NoElim: true, NoBlocked: true})
	if res.Stats.ClausesSubsumed != 1 {
		t.Fatalf("subsumed = %d, want 1", res.Stats.ClausesSubsumed)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("clauses = %d, want 1", f.NumClauses())
	}
}

func TestSelfSubsumingResolution(t *testing.T) {
	// (1 ∨ 2) strengthens (¬1 ∨ 2 ∨ 3) to (2 ∨ 3).
	f := newFormula(3, []int{1, 2}, []int{-1, 2, 3})
	res := Preprocess(f, Options{NoElim: true, NoBlocked: true})
	if res.Stats.ClausesStrengthened != 1 {
		t.Fatalf("strengthened = %d, want 1", res.Stats.ClausesStrengthened)
	}
	found := false
	for _, c := range f.clauses {
		if !c.deleted && len(c.lits) == 2 && contains(c.lits, lit(2)) && contains(c.lits, lit(3)) {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the strengthened clause (2 ∨ 3)")
	}
}

func TestSubsumesPredicate(t *testing.T) {
	for _, tc := range []struct {
		c, d []int
		want sat.Lit
	}{
		{[]int{1, 2}, []int{1, 2}, subsumed},
		{[]int{1, 2}, []int{3, 2, 1}, subsumed},
		{[]int{-1, 2}, []int{2, 4, -1}, subsumed},
		{[]int{1, 2}, []int{-1, 2, 3}, lit(1)},
		{[]int{1, -2}, []int{3, 2, 1}, lit(-2)},
		{[]int{1, 2, 3}, []int{3, -2, 1, 4}, lit(2)},
		{[]int{1, 2}, []int{-1, -2, 3}, unrelated},
		{[]int{1, 2}, []int{1, 3}, unrelated},
		{[]int{1, 2}, []int{-1, 3}, unrelated},
		{[]int{1, 2, 3}, []int{1, 2}, unrelated},
	} {
		c, d := make([]sat.Lit, len(tc.c)), make([]sat.Lit, len(tc.d))
		for i, v := range tc.c {
			c[i] = lit(v)
		}
		for i, v := range tc.d {
			d[i] = lit(v)
		}
		if got := subsumes(c, d); got != tc.want {
			t.Errorf("subsumes(%v, %v) = %v, want %v", c, d, got, tc.want)
		}
	}
}

// TestSubsumptionFixpoint checks by brute force that subsumption and
// self-subsuming resolution run to their fixpoint leave no live pair
// C, D with C ⊆ D or with C ⊆ D after flipping one literal of C.
func TestSubsumptionFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f, _, _ := goldenFormula(seed)
		const rounds = 100
		res := Preprocess(f, Options{NoElim: true, NoBlocked: true, MaxRounds: rounds})
		if res.Unsat || res.Stats.Rounds == rounds || res.Stats.BudgetSpent >= defaultBudget {
			t.Fatalf("seed %d: no fixpoint: %+v", seed, res.Stats)
		}
		for ci, c := range f.clauses {
			if c.deleted {
				continue
			}
			for di, d := range f.clauses {
				if di == ci || d.deleted {
					continue
				}
				flips := 0
				for _, l := range c.lits {
					switch {
					case contains(d.lits, l):
					case contains(d.lits, l.Not()):
						flips++
					default:
						flips = 2
					}
				}
				if flips < 2 {
					t.Fatalf("seed %d: clause %d %v left with %d flips against clause %d %v", seed, ci, c.lits, flips, di, d.lits)
				}
			}
		}
	}
}

// randomClauses draws nclauses clauses of 1..maxLen literals over
// variables 1..nvars.
func randomClauses(rng *rand.Rand, nvars, nclauses, maxLen int) [][]int {
	clauses := make([][]int, nclauses)
	for i := range clauses {
		c := make([]int, 1+rng.Intn(maxLen))
		for j := range c {
			v := 1 + rng.Intn(nvars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		clauses[i] = c
	}
	return clauses
}

// randomFrozen picks a random subset of the variables 1..nvars, each
// with the same probability of 1/4, 1/2 or 3/4.
func randomFrozen(rng *rand.Rand, nvars int) []int {
	p := 1 + rng.Intn(3)
	var vs []int
	for v := 1; v <= nvars; v++ {
		if rng.Intn(4) < p {
			vs = append(vs, v)
		}
	}
	return vs
}

// plainSolver loads clauses, plus units, into a CDCL core with no
// preprocessing.
func plainSolver(nvars int, clauses [][]int, units ...int) *sat.Solver {
	s := sat.New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		lits := make([]sat.Lit, len(c))
		for j, v := range c {
			lits[j] = lit(v)
		}
		s.AddClause(lits...)
	}
	for _, u := range units {
		s.AddClause(lit(u))
	}
	return s
}

// solveFrozen freezes the given variables of f, preprocesses it,
// streams the result into a fresh CDCL core with LoadDelta, and solves
// it. A Sat result also returns the core model's values on the frozen
// variables, as DIMACS units.
func solveFrozen(f *Formula, opts Options, frozen []int) (sat.Status, []int, Stats) {
	for _, v := range frozen {
		f.Freeze(v)
	}
	res := Preprocess(f, opts)
	if res.Unsat {
		return sat.Unsat, nil, res.Stats
	}
	core := sat.New()
	f.LoadDelta(core)
	st := core.Solve()
	if st != sat.Sat {
		return st, nil, res.Stats
	}
	units := make([]int, len(frozen))
	for i, v := range frozen {
		units[i] = v
		if !core.ValueOf(v) {
			units[i] = -v
		}
	}
	return st, units, res.Stats
}

// checkFrozenModel asserts a Sat model's values on the frozen variables
// as units on top of the original clauses: elimination and blocked
// clauses only ever drop constraints through non-frozen variables, so
// the values must extend to a model of the original formula.
func checkFrozenModel(t *testing.T, nvars int, clauses [][]int, units []int) {
	t.Helper()
	if st := plainSolver(nvars, clauses, units...).Solve(); st != sat.Sat {
		t.Fatalf("frozen values %v do not extend to a model of %v (%v)", units, clauses, st)
	}
}

func TestEliminationReconstruction(t *testing.T) {
	// Variable 1 is functionally defined and not frozen; elimination
	// removes it, and the values the core gives the frozen variables
	// must still extend to a model of the original clauses.
	clauses := [][]int{{1, 2}, {-1, 3}, {2, 3, 4}}
	f := newFormula(4, clauses...)
	st, units, _ := solveFrozen(f, Options{NoSubsume: true, NoBlocked: true}, []int{2, 3, 4})
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if !f.elim[1] {
		t.Fatal("variable 1 should have been eliminated")
	}
	checkFrozenModel(t, 4, clauses, units)
}

func TestPureLiteralReconstruction(t *testing.T) {
	// Variable 1 occurs only positively: pure-literal elimination (BVE
	// with an empty side) drops both clauses that mention it, and the
	// frozen variables 2 and 3 are left with (¬2 ∨ ¬3) alone.
	clauses := [][]int{{1, 2}, {1, 3}, {-2, -3}}
	f := newFormula(3, clauses...)
	st, units, _ := solveFrozen(f, Options{NoSubsume: true, NoBlocked: true}, []int{2, 3})
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if !f.elim[1] {
		t.Fatal("pure variable 1 should have been eliminated")
	}
	checkFrozenModel(t, 3, clauses, units)
}

func TestBlockedClauseReconstruction(t *testing.T) {
	// (1 ∨ 2) is blocked on the non-frozen literal 1: every clause with
	// ¬1 resolves tautologically, so dropping it leaves the frozen
	// variables' values extendable.
	clauses := [][]int{{1, 2}, {-1, -2, 3}, {-3, 2}}
	f := newFormula(3, clauses...)
	st, units, stats := solveFrozen(f, Options{NoSubsume: true, NoElim: true}, []int{2, 3})
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if stats.ClausesBlocked == 0 {
		t.Fatal("expected a blocked clause")
	}
	checkFrozenModel(t, 3, clauses, units)
}

func TestStopFlagHalts(t *testing.T) {
	var flag sat.StopFlag
	flag.Stop()
	clauses := [][]int{{1, 2}, {-1, 3}}
	f := newFormula(3, clauses...)
	res := Preprocess(f, Options{Stop: &flag})
	// A stopped run does nothing beyond saturation but stays sound.
	if res.Unsat {
		t.Fatal("stopped preprocessing must not claim unsat")
	}
	if res.Stats.VarsEliminated+res.Stats.ClausesSubsumed+res.Stats.ClausesBlocked != 0 {
		t.Fatal("stopped preprocessing should not run passes")
	}
}

func TestBudgetHalts(t *testing.T) {
	clauses := [][]int{{1, 2, 3}, {-1, 2, 4}, {3, -4, 5}, {-5, 1, 2}}
	f := newFormula(5, clauses...)
	// Whatever partial work happened must remain equisatisfiable, and
	// exact on the frozen variables.
	st, units, _ := solveFrozen(f, Options{Budget: 1}, []int{1, 2})
	if st != sat.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	checkFrozenModel(t, 5, clauses, units)
}

// TestDifferentialRandom cross-checks the full pipeline against an
// unpreprocessed CDCL run on random CNFs, over every pass-toggle
// combination and random frozen sets: statuses must agree, and the
// frozen variables' values of every Sat model must extend to a model
// of the original clauses.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		nvars := 3 + rng.Intn(18)
		clauses := randomClauses(rng, nvars, 2+rng.Intn(4*nvars), 4)
		want := plainSolver(nvars, clauses).Solve()

		opts := Options{
			NoSubsume: rng.Intn(4) == 0,
			NoElim:    rng.Intn(4) == 0,
			NoBlocked: rng.Intn(4) == 0,
		}
		f := newFormula(nvars, clauses...)
		st, units, _ := solveFrozen(f, opts, randomFrozen(rng, nvars))
		if st != want {
			t.Fatalf("iter %d: status %v with preprocessing %+v, want %v (clauses %v)",
				iter, st, opts, want, clauses)
		}
		if st == sat.Sat {
			checkFrozenModel(t, nvars, clauses, units)
		}
	}
}

// TestDifferentialEliminationHeavy stresses the two passes that lose
// models — elimination and blocked clauses — on few variables and many
// clauses.
func TestDifferentialEliminationHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		nvars := 2 + rng.Intn(8)
		clauses := randomClauses(rng, nvars, 1+rng.Intn(3*nvars), 3)
		want := plainSolver(nvars, clauses).Solve()

		f := newFormula(nvars, clauses...)
		st, units, _ := solveFrozen(f, Options{NoSubsume: true}, randomFrozen(rng, nvars))
		if st != want {
			t.Fatalf("iter %d: status %v, want %v (clauses %v)", iter, st, want, clauses)
		}
		if st == sat.Sat {
			checkFrozenModel(t, nvars, clauses, units)
		}
	}
}

// TestWarmCallFollowsDelta: a Preprocess call after LoadDelta spends
// effort on the clauses added since the load, not on the whole
// database, and a new clause still subsumes a loaded one.
func TestWarmCallFollowsDelta(t *testing.T) {
	const n = 2000
	var clauses [][]int
	for v := 1; v < n; v++ {
		clauses = append(clauses, []int{-v, v + 1})
	}
	clauses = append(clauses, []int{-1, 3, 5})
	f := newFormula(n, clauses...)
	for v := 1; v <= n; v++ {
		f.Freeze(v)
	}
	cold := Preprocess(f, Options{})
	f.LoadDelta(sat.New())
	f.AddClause(lit(-1), lit(3))
	warm := Preprocess(f, Options{})
	if warm.Stats.ClausesSubsumed != 1 {
		t.Fatalf("warm call subsumed %d clauses, want 1 (the loaded (¬1 ∨ 3 ∨ 5))", warm.Stats.ClausesSubsumed)
	}
	if warm.Stats.BudgetSpent*100 > cold.Stats.BudgetSpent {
		t.Fatalf("warm call spent %d ticks on a 2-literal delta, cold call %d", warm.Stats.BudgetSpent, cold.Stats.BudgetSpent)
	}
}

func TestLoadCarriesUnits(t *testing.T) {
	f := newFormula(3, []int{2}, []int{-2, 3})
	Preprocess(f, Options{})
	core := sat.New()
	f.LoadDelta(core)
	if core.NumVars() != 3 {
		t.Fatalf("vars = %d, want 3", core.NumVars())
	}
	if st := core.Solve(); st != sat.Sat {
		t.Fatal("want sat")
	}
	if !core.ValueOf(2) || !core.ValueOf(3) {
		t.Fatal("root units lost in LoadDelta")
	}
}
