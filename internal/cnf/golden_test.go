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
// elimination and probing all fire on it, and deletions and
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
		"cold/1":   "unsat=false {Rounds:5 VarsEliminated:79 ClausesSubsumed:44 ClausesStrengthened:68 ClausesBlocked:22 ProbeUnits:2 Units:145 VarsIn:281 ClausesIn:749 ClausesOut:28 BudgetSpent:14983} clauses=71183a03eaa82d14 units=145/a75141948a91f2a0",
		"budget/1": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:29 ClausesStrengthened:53 ClausesBlocked:0 ProbeUnits:0 Units:140 VarsIn:281 ClausesIn:749 ClausesOut:223 BudgetSpent:5004} clauses=3db080c165d5503d units=140/a98ece4d592488d7",
		"warm/1":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 ProbeUnits:0 Units:1 VarsIn:281 ClausesIn:30 ClausesOut:29 BudgetSpent:321} clauses=4685213a2bcc7b18 units=146/e02a609cecaa78b4",
		"cold/2":   "unsat=false {Rounds:5 VarsEliminated:141 ClausesSubsumed:112 ClausesStrengthened:141 ClausesBlocked:9 ProbeUnits:9 Units:185 VarsIn:386 ClausesIn:1098 ClausesOut:30 BudgetSpent:28006} clauses=4db5db8f3a9abbb6 units=185/2669a8361ab5666a",
		"budget/2": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:30 ClausesStrengthened:43 ClausesBlocked:0 ProbeUnits:0 Units:139 VarsIn:386 ClausesIn:1098 ClausesOut:518 BudgetSpent:5014} clauses=cd1d6646cab3b7b8 units=139/ecb1f6236f725265",
		"warm/2":   "unsat=false {Rounds:2 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:1 ClausesBlocked:0 ProbeUnits:0 Units:1 VarsIn:386 ClausesIn:34 ClausesOut:31 BudgetSpent:480} clauses=8bc53ec162147452 units=186/76503b4e3e11e415",
		"cold/3":   "unsat=false {Rounds:5 VarsEliminated:87 ClausesSubsumed:56 ClausesStrengthened:66 ClausesBlocked:6 ProbeUnits:7 Units:89 VarsIn:208 ClausesIn:558 ClausesOut:13 BudgetSpent:13512} clauses=5c0cc1a93df539f2 units=89/701db9c5f744405d",
		"budget/3": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:28 ClausesStrengthened:44 ClausesBlocked:0 ProbeUnits:0 Units:79 VarsIn:208 ClausesIn:558 ClausesOut:256 BudgetSpent:5020} clauses=373ebd9a47d8b2c4 units=79/6b84a83ea92738d1",
		"warm/3":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 ProbeUnits:0 Units:1 VarsIn:208 ClausesIn:17 ClausesOut:14 BudgetSpent:103} clauses=ec2e8f610e8f2318 units=90/5eaae53156b9cd5",
		"cold/4":   "unsat=false {Rounds:5 VarsEliminated:97 ClausesSubsumed:88 ClausesStrengthened:150 ClausesBlocked:19 ProbeUnits:22 Units:93 VarsIn:229 ClausesIn:631 ClausesOut:30 BudgetSpent:37319} clauses=aae494e627addd50 units=93/9260964dadf343f1",
		"budget/4": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:21 ClausesStrengthened:44 ClausesBlocked:0 ProbeUnits:0 Units:34 VarsIn:229 ClausesIn:631 ClausesOut:529 BudgetSpent:5016} clauses=760665f9523a8324 units=34/a977744adefc26f6",
		"warm/4":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 ProbeUnits:0 Units:2 VarsIn:229 ClausesIn:34 ClausesOut:28 BudgetSpent:342} clauses=da549c2bcb523d5 units=95/36c2703e76d7a03",
		"cold/5":   "unsat=false {Rounds:3 VarsEliminated:68 ClausesSubsumed:22 ClausesStrengthened:42 ClausesBlocked:5 ProbeUnits:4 Units:118 VarsIn:226 ClausesIn:589 ClausesOut:18 BudgetSpent:6606} clauses=cc1cf00e870b0a9 units=118/6249f47b52ece9e5",
		"budget/5": "unsat=false {Rounds:1 VarsEliminated:47 ClausesSubsumed:20 ClausesStrengthened:42 ClausesBlocked:0 ProbeUnits:0 Units:113 VarsIn:226 ClausesIn:589 ClausesOut:91 BudgetSpent:5003} clauses=ac2f471ec46b7004 units=113/82b55259114b1b81",
		"warm/5":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 ProbeUnits:0 Units:2 VarsIn:226 ClausesIn:20 ClausesOut:18 BudgetSpent:102} clauses=a7f16541e6a5ebaa units=120/c9cabac4adb8a515",
		"cold/6":   "unsat=false {Rounds:5 VarsEliminated:163 ClausesSubsumed:155 ClausesStrengthened:207 ClausesBlocked:71 ProbeUnits:10 Units:104 VarsIn:348 ClausesIn:963 ClausesOut:84 BudgetSpent:66791} clauses=865b2b18ec93bb6f units=104/9196a87fa1e5fbc1",
		"budget/6": "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:12 ClausesStrengthened:30 ClausesBlocked:0 ProbeUnits:0 Units:76 VarsIn:348 ClausesIn:963 ClausesOut:684 BudgetSpent:5032} clauses=dc840465747cff67 units=76/63de1d86153eea2a",
		"warm/6":   "unsat=false {Rounds:1 VarsEliminated:0 ClausesSubsumed:0 ClausesStrengthened:0 ClausesBlocked:0 ProbeUnits:0 Units:6 VarsIn:348 ClausesIn:88 ClausesOut:72 BudgetSpent:647} clauses=4c0d2d0210b4c1f3 units=110/381b94ab749e39ef",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 6; seed++ {
		f, _, _ := goldenFormula(seed)
		got[fmt.Sprintf("cold/%d", seed)] = fingerprint(f, Preprocess(f, Options{}))

		f, _, _ = goldenFormula(seed)
		const small = 5_000
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
