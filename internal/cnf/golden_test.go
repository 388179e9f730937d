package cnf

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"alive/internal/sat"
)

// goldenFormula draws a satisfiable random formula with a few hundred
// variables: clauses of 2 to 5 literals plus a few units, each drawn
// from a narrow window of variables so that clauses overlap, and each
// satisfied by a hidden assignment. Subsumption, strengthening,
// elimination and blocked clauses all fire on it, and deletions and
// strengthenings leave stale occurrence entries behind. A quarter of
// the variables are frozen, as a session would freeze its interface.
// It returns the formula, its frozen variables and the hidden
// assignment.
func goldenFormula(seed int64) (*Formula, []int, []bool) {
	rng := rand.New(rand.NewSource(seed))
	nvars := 200 + rng.Intn(200)
	hidden := make([]bool, nvars+1)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	clauses := make([][]int, 4*nvars)
	for i := range clauses {
		n := 2 + rng.Intn(4)
		if rng.Intn(40) == 0 {
			n = 1
		}
		base := rng.Intn(nvars - 11)
		c := make([]int, n)
		satisfied := false
		for j := range c {
			v := base + 1 + rng.Intn(12)
			c[j] = v
			if rng.Intn(2) == 0 {
				c[j] = -v
			}
			satisfied = satisfied || (c[j] > 0) == hidden[v]
		}
		if !satisfied {
			c[0] = -c[0]
		}
		clauses[i] = c
	}
	f := newFormula(nvars, clauses...)
	var frozen []int
	for v := 1; v <= nvars; v++ {
		if rng.Intn(4) == 0 && f.value[v] == 0 {
			frozen = append(frozen, v)
			f.Freeze(v)
		}
	}
	return f, frozen, hidden
}

// fingerprint renders everything observable about a preprocessing run:
// every Stats field, a hash of the live clauses in index order, and the
// root units in the order they were fixed.
func fingerprint(f *Formula, res *Result) string {
	h := fnv.New64a()
	for ci, c := range f.clauses {
		if c.deleted {
			continue
		}
		fmt.Fprint(h, ci, ":", c.lits, ";")
	}
	u := fnv.New64a()
	fmt.Fprint(u, f.trailOut)
	return fmt.Sprintf("unsat=%v %+v clauses=%x units=%d/%x",
		res.Unsat, res.Stats, h.Sum64(), len(f.trailOut), u.Sum64())
}

// TestGoldenFingerprints pins the preprocessor's exact behaviour on
// seeded random formulas, three ways: a cold call at the default
// budget, a cold call whose small budget runs out, and a warm call
// after LoadDelta plus a few new clauses. The inner loops may get
// cheaper, but every clause visited, tick spent and clause produced
// must stay the same; a change that means to alter the search
// regenerates these values and says why.
func TestGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"cold/1":   "unsat=false {Rounds:5 VarsEliminated:82 ClausesSubsumed:51 ClausesStrengthened:75 ClausesBlocked:21 Units:141 VarsIn:281 ClausesIn:749 ClausesOut:31 BudgetSpent:8792} clauses=b8c29598957f3edb units=141/691ebd4635f516b8",
		"budget/1": "unsat=false {Rounds:1 VarsEliminated:8 ClausesSubsumed:36 ClausesStrengthened:63 ClausesBlocked:0 Units:140 VarsIn:281 ClausesIn:749 ClausesOut:201 BudgetSpent:4026} clauses=b3db48c591b28f08 units=140/a98ece4d592488d7",
		"warm/1":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 Units:0 VarsIn:281 ClausesIn:36 ClausesOut:36 BudgetSpent:8} clauses=71eb5bf946c79003 units=141/691ebd4635f516b8",
		"cold/2":   "unsat=false {Rounds:5 VarsEliminated:148 ClausesSubsumed:139 ClausesStrengthened:187 ClausesBlocked:8 Units:170 VarsIn:386 ClausesIn:1098 ClausesOut:60 BudgetSpent:21079} clauses=954b958c2d730e2d units=170/c3c4169eb5113b3c",
		"budget/2": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:43 ClausesStrengthened:60 ClausesBlocked:0 Units:142 VarsIn:386 ClausesIn:1098 ClausesOut:494 BudgetSpent:4003} clauses=b1bdcd6b0d56412d units=142/9624e278478790dc",
		"warm/2":   "unsat=false {Rounds:2 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:1 ClausesBlocked:0 Units:1 VarsIn:386 ClausesIn:64 ClausesOut:61 BudgetSpent:8} clauses=7c2a774b197c9e0b units=171/9f8af8dc5ac3e51b",
		"cold/3":   "unsat=false {Rounds:5 VarsEliminated:85 ClausesSubsumed:64 ClausesStrengthened:87 ClausesBlocked:5 Units:83 VarsIn:208 ClausesIn:558 ClausesOut:42 BudgetSpent:13058} clauses=c0e0e7b11da08a34 units=83/141ed6934f235892",
		"budget/3": "unsat=false {Rounds:1 VarsEliminated:10 ClausesSubsumed:44 ClausesStrengthened:59 ClausesBlocked:0 Units:79 VarsIn:208 ClausesIn:558 ClausesOut:219 BudgetSpent:4009} clauses=76798b763893c924 units=79/6b84a83ea92738d1",
		"warm/3":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 Units:1 VarsIn:208 ClausesIn:47 ClausesOut:41 BudgetSpent:12} clauses=1f5845a8bcfa65f7 units=84/81d7e4695532ccec",
		"cold/4":   "unsat=false {Rounds:5 VarsEliminated:87 ClausesSubsumed:103 ClausesStrengthened:178 ClausesBlocked:15 Units:59 VarsIn:229 ClausesIn:631 ClausesOut:184 BudgetSpent:46383} clauses=3d4628bb8125deb4 units=59/e2da87d95c70058",
		"budget/4": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:40 ClausesStrengthened:76 ClausesBlocked:0 Units:38 VarsIn:229 ClausesIn:631 ClausesOut:492 BudgetSpent:4009} clauses=e572ad8939b622dd units=38/18f39dc85386b5b9",
		"warm/4":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 Units:1 VarsIn:229 ClausesIn:189 ClausesOut:188 BudgetSpent:31} clauses=4bf54e1b1294de5c units=60/98c09aa8a52a8c28",
		"cold/5":   "unsat=false {Rounds:5 VarsEliminated:71 ClausesSubsumed:28 ClausesStrengthened:53 ClausesBlocked:5 Units:116 VarsIn:226 ClausesIn:589 ClausesOut:18 BudgetSpent:4929} clauses=cc1cf00e870b0a9 units=116/7ec27c757b0b0fd3",
		"budget/5": "unsat=false {Rounds:1 VarsEliminated:62 ClausesSubsumed:20 ClausesStrengthened:43 ClausesBlocked:0 Units:113 VarsIn:226 ClausesIn:589 ClausesOut:57 BudgetSpent:4019} clauses=7e2b1b2a5be4a161 units=113/82b55259114b1b81",
		"warm/5":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 Units:2 VarsIn:226 ClausesIn:20 ClausesOut:18 BudgetSpent:4} clauses=f1690c3420dbea40 units=118/6e08306d7ac25ba3",
		"cold/6":   "unsat=false {Rounds:5 VarsEliminated:154 ClausesSubsumed:158 ClausesStrengthened:220 ClausesBlocked:78 Units:96 VarsIn:348 ClausesIn:963 ClausesOut:148 BudgetSpent:48446} clauses=7b5342f189ef9549 units=96/1f557fb16949f327",
		"budget/6": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:28 ClausesStrengthened:50 ClausesBlocked:0 Units:77 VarsIn:348 ClausesIn:963 ClausesOut:663 BudgetSpent:4014} clauses=2dadce0c1453f0e8 units=77/17d3cdb5f0a5e3c8",
		"warm/6":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 Units:3 VarsIn:348 ClausesIn:152 ClausesOut:142 BudgetSpent:35} clauses=cbff8e023bc9614f units=99/100d0784d4c82d79",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 6; seed++ {
		f, _, _ := goldenFormula(seed)
		got[fmt.Sprintf("cold/%d", seed)] = fingerprint(f, Preprocess(f, Options{}))

		f, _, _ = goldenFormula(seed)
		const small = 4_000
		res := Preprocess(f, Options{Budget: small})
		if res.Stats.BudgetSpent < small {
			t.Errorf("seed %d: small budget not exhausted (%d of %d ticks)", seed, res.Stats.BudgetSpent, small)
		}
		got[fmt.Sprintf("budget/%d", seed)] = fingerprint(f, res)

		// The new clauses mention only frozen variables, as a session's
		// next query would, and keep the hidden assignment a model.
		f, frozen, hidden := goldenFormula(seed)
		Preprocess(f, Options{})
		f.LoadDelta(sat.New())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			lits := make([]sat.Lit, 2+rng.Intn(2))
			for j := range lits {
				lits[j] = sat.MkLit(frozen[rng.Intn(len(frozen))], rng.Intn(2) == 0)
			}
			if v := lits[0].Var(); lits[0].Neg() == hidden[v] {
				lits[0] = lits[0].Not()
			}
			f.AddClause(lits...)
		}
		got[fmt.Sprintf("warm/%d", seed)] = fingerprint(f, Preprocess(f, Options{}))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s:\n got  %s\n want %s", k, g, want[k])
		}
	}
}
