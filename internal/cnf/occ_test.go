package cnf

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"alive/internal/sat"
)

// checkIndex asserts that the formula's occurrence index, when it has
// one, equals a brute-force rebuild: every list holds exactly the live
// clauses containing its literal, in index order, and none is marked
// stale.
func checkIndex(t *testing.T, f *Formula, step string) {
	t.Helper()
	if f.occ == nil {
		return
	}
	if len(f.occ) != 2*(f.nvars+1) || len(f.stale) != len(f.occ) {
		t.Fatalf("%s: index covers %d literals (%d marks), formula has %d variables", step, len(f.occ), len(f.stale), f.nvars)
	}
	if len(f.staleLits) != 0 {
		t.Fatalf("%s: %d lists still queued for compaction", step, len(f.staleLits))
	}
	want := make([][]int, len(f.occ))
	for ci, c := range f.clauses {
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			want[l] = append(want[l], ci)
		}
	}
	for l := range f.occ {
		if f.stale[l] {
			t.Fatalf("%s: list of %v is marked stale", step, sat.Lit(l))
		}
		if !slices.Equal(f.occ[l], want[l]) {
			t.Fatalf("%s: list of %v is %v, a rebuild gives %v", step, sat.Lit(l), f.occ[l], want[l])
		}
	}
}

// session drives a goldenFormula through the calls of an incremental
// solver session: a cold Preprocess, then rounds of new variables and
// clauses, warm Preprocess calls (some stopped by a small budget) and
// LoadDelta. New clauses mention only frozen variables and variables
// made in the same round, as a session's next query would, and the
// hidden assignment satisfies each of them, so the formula stays
// satisfiable. When rebuild is set, the index is dropped before every
// call, so each call builds it afresh. step runs after every operation.
func session(seed int64, rebuild bool, step func(name string, f *Formula, res *Result)) {
	f, frozen, hidden := goldenFormula(seed)
	rng := rand.New(rand.NewSource(seed))
	preprocess := func(name string, opts Options) {
		if rebuild {
			f.occ, f.stale, f.staleLits = nil, nil, nil
		}
		step(name, f, Preprocess(f, opts))
	}
	preprocess("cold", Options{})
	f.LoadDelta(sat.New())
	step("load", f, nil)
	for round := 0; round < 8; round++ {
		var fresh []int
		for i := 0; i < 12; i++ {
			v := f.NewVar()
			hidden = append(hidden, rng.Intn(2) == 0)
			fresh = append(fresh, v)
		}
		step(fmt.Sprintf("vars/%d", round), f, nil)
		// Each clause draws from a few frozen variables next to each
		// other and this round's fresh ones, so that new clauses
		// subsume, strengthen and resolve with each other and with the
		// loaded ones.
		for i := 0; i < 30+rng.Intn(30); i++ {
			lits := make([]sat.Lit, 2+rng.Intn(3))
			if rng.Intn(20) == 0 {
				lits = lits[:1]
			}
			base := rng.Intn(len(frozen) - 4)
			for j := range lits {
				v := fresh[rng.Intn(len(fresh))]
				if rng.Intn(2) == 0 {
					v = frozen[base+rng.Intn(4)]
				}
				lits[j] = sat.MkLit(v, rng.Intn(2) == 0)
			}
			if v := lits[0].Var(); lits[0].Neg() == hidden[v] {
				lits[0] = lits[0].Not()
			}
			f.AddClause(lits...)
			step(fmt.Sprintf("add/%d/%d", round, i), f, nil)
		}
		opts := Options{}
		if round%3 == 1 {
			opts.Budget = 60
		}
		preprocess(fmt.Sprintf("warm/%d", round), opts)
		// Half the fresh variables become interface variables that later
		// rounds may mention; the others may have been eliminated.
		for _, v := range fresh[:len(fresh)/2] {
			if !f.elim[v] {
				f.Freeze(v)
				frozen = append(frozen, v)
			}
		}
		if round%4 != 3 {
			// Every fourth round preprocesses twice before loading: a
			// warm call that finds nothing new.
			f.LoadDelta(sat.New())
			step(fmt.Sprintf("load/%d", round), f, nil)
		}
	}
}

// TestKeptIndexMatchesRebuild: from a formula's first warm Preprocess
// call on, its occurrence index outlives the call. After every
// AddClause, NewVar, Preprocess (cold, warm, or stopped by its budget)
// and LoadDelta, each kept list equals a rebuild, and a cold call
// leaves no index behind.
func TestKeptIndexMatchesRebuild(t *testing.T) {
	// warm sums what the warm calls did, so the test fails if the
	// sessions stop exercising a pass or a budget stop.
	var warm Stats
	stopped := 0
	for seed := int64(1); seed <= 6; seed++ {
		session(seed, false, func(name string, f *Formula, res *Result) {
			switch {
			case name == "cold" && f.occ != nil:
				t.Fatalf("seed %d: the cold call kept its index", seed)
			case strings.HasPrefix(name, "warm"):
				if f.occ == nil {
					t.Fatalf("seed %d %s: a warm call dropped its index", seed, name)
				}
				warm.VarsEliminated += res.Stats.VarsEliminated
				warm.ClausesSubsumed += res.Stats.ClausesSubsumed
				warm.ClausesStrengthened += res.Stats.ClausesStrengthened
				warm.ClausesBlocked += res.Stats.ClausesBlocked
				warm.Units += res.Stats.Units
				if res.Stats.BudgetSpent >= 60 {
					stopped++
				}
			}
			checkIndex(t, f, fmt.Sprintf("seed %d %s", seed, name))
		})
	}
	if warm.VarsEliminated == 0 || warm.ClausesSubsumed == 0 || warm.ClausesStrengthened == 0 || warm.ClausesBlocked == 0 || warm.Units == 0 || stopped == 0 {
		t.Fatalf("the warm calls left a pass or the budget stop untested: %+v, %d stopped", warm, stopped)
	}
}

// TestKeptIndexSameSearch: a session whose warm calls reuse the kept
// index makes every call exactly as one that rebuilds the index each
// time: same stats, ticks, clauses and root units.
func TestKeptIndexSameSearch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var want, got []string
		record := func(out *[]string) func(string, *Formula, *Result) {
			return func(name string, f *Formula, res *Result) {
				if res != nil {
					*out = append(*out, name+" "+fingerprint(f, res))
				}
			}
		}
		session(seed, true, record(&want))
		session(seed, false, record(&got))
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: kept index diverges from a rebuild:\n got  %v\n want %s", seed, got[i:min(i+1, len(got))], want[i])
				}
			}
			t.Fatalf("seed %d: %d calls with a kept index, %d with rebuilds", seed, len(got), len(want))
		}
	}
}

// TestWarmCallAllocatesForDelta: a warm call on a formula of more than
// 10k clauses allocates for the clauses it adds, not for the formula.
// Rebuilding the index allocated at least once per occurring literal,
// thousands of times per call here.
func TestWarmCallAllocatesForDelta(t *testing.T) {
	const nvars, nclauses = 4000, 12000
	rng := rand.New(rand.NewSource(1))
	hidden := make([]bool, nvars+1)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	clauses := make([][]int, nclauses)
	for i := range clauses {
		c := make([]int, 3)
		for j := range c {
			v := 1 + rng.Intn(nvars)
			c[j] = v
			if hidden[v] == (rng.Intn(2) == 0) {
				c[j] = -v
			}
		}
		if v := c[0]; (v > 0) != hidden[max(v, -v)] {
			c[0] = -v
		}
		clauses[i] = c
	}
	f := newFormula(nvars, clauses...)
	for v := 1; v <= nvars; v++ {
		f.Freeze(v)
	}
	core := sat.New()
	Preprocess(f, Options{})
	f.LoadDelta(core)
	if f.NumClauses() < 10_000 {
		t.Fatalf("formula has %d clauses, want at least 10k", f.NumClauses())
	}
	// A call adds k = 3·clauses literals: clauses over a fresh variable
	// and two frozen ones, as a session's next query would add.
	const clausesPerCall = 8
	call := func() {
		x := f.NewVar()
		for i := 0; i < clausesPerCall; i++ {
			a, b := 1+rng.Intn(nvars), 1+rng.Intn(nvars)
			f.AddClause(sat.MkLit(x, rng.Intn(2) == 0), sat.MkLit(a, !hidden[a]), sat.MkLit(b, rng.Intn(2) == 0))
		}
		Preprocess(f, Options{})
		f.LoadDelta(core)
	}
	call() // the first warm call builds the index
	if f.occ == nil {
		t.Fatal("the first warm call did not keep its index")
	}
	allocs := testing.AllocsPerRun(20, call)
	const k = 3 * clausesPerCall
	if allocs > 8*k {
		t.Fatalf("a warm call adding %d literals to %d clauses made %.0f allocations, want at most %d", k, f.NumClauses(), allocs, 8*k)
	}
	checkIndex(t, f, "after the measured calls")
}
