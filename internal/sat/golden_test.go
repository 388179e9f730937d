package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// threshold3SAT draws random 3-SAT at clause/variable ratio 4.26, where
// instances are hardest. Literals are drawn with replacement, so some
// clauses carry duplicate literals or are tautologies and exercise
// AddClause's normalization.
func threshold3SAT(rng *rand.Rand, nvars int) [][]int {
	clauses := make([][]int, nvars*426/100)
	for i := range clauses {
		c := make([]int, 3)
		for j := range c {
			c[j] = 1 + rng.Intn(nvars)
			if rng.Intn(2) == 0 {
				c[j] = -c[j]
			}
		}
		clauses[i] = c
	}
	return clauses
}

// solveFingerprint renders one Solve call: status, the counters it
// moved, and a hash of the model or of the final conflict over the
// assumptions.
func solveFingerprint(s *Solver, assumps ...Lit) string {
	c0, d0, p0, r0 := s.Conflicts(), s.Decisions(), s.Propagations(), s.Restarts()
	st := s.Solve(assumps...)
	h := fnv.New64a()
	switch st {
	case Sat:
		fmt.Fprint(h, s.Model())
	case Unsat:
		fmt.Fprint(h, s.ConflictSubset())
	}
	return fmt.Sprintf("%v conflicts=%d decisions=%d propagations=%d restarts=%d hash=%x",
		st, s.Conflicts()-c0, s.Decisions()-d0, s.Propagations()-p0, s.Restarts()-r0, h.Sum64())
}

// TestGoldenFingerprints pins the CDCL core's exact search on seeded
// random 3-SAT: a plain solve, then on the same solver a solve under
// assumptions and a ProbeUnder over them. The inner loops may get
// cheaper, but every decision, propagation and learnt clause must stay
// the same; a change that means to alter the search regenerates these
// values and says why.
func TestGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"plain/1":  "sat conflicts=41 decisions=73 propagations=1212 restarts=0 hash=963915f60b3b56c8",
		"assume/1": "sat conflicts=0 decisions=20 propagations=121 restarts=0 hash=963915f60b3b56c8",
		"probe/1":  "feasible=true failed=0/9612b07b5ecb5a5",
		"plain/2":  "sat conflicts=4217 decisions=5243 propagations=154341 restarts=24 hash=6ba006850724c82b",
		"assume/2": "unsat conflicts=647 decisions=793 propagations=22950 restarts=5 hash=909d875552503cea",
		"probe/2":  "feasible=false failed=7/238974c0df0fa4cc",
		"plain/3":  "unsat conflicts=3461 decisions=4102 propagations=121436 restarts=17 hash=9612b07b5ecb5a5",
		"assume/3": "unsat conflicts=0 decisions=0 propagations=0 restarts=0 hash=9612b07b5ecb5a5",
		"probe/3":  "feasible=false failed=0/9612b07b5ecb5a5",
		"plain/4":  "sat conflicts=656 decisions=834 propagations=22276 restarts=5 hash=2356067978f3c015",
		"assume/4": "sat conflicts=0 decisions=20 propagations=149 restarts=0 hash=b0d6076f095f26a0",
		"probe/4":  "feasible=true failed=19/6a87d92662eaadb8",
		"plain/5":  "unsat conflicts=1615 decisions=1935 propagations=48459 restarts=10 hash=9612b07b5ecb5a5",
		"assume/5": "unsat conflicts=0 decisions=0 propagations=0 restarts=0 hash=9612b07b5ecb5a5",
		"probe/5":  "feasible=false failed=0/9612b07b5ecb5a5",
		"plain/6":  "sat conflicts=523 decisions=703 propagations=15867 restarts=4 hash=5beee3fc4a83be29",
		"assume/6": "sat conflicts=0 decisions=32 propagations=148 restarts=0 hash=6929d53e5aca39de",
		"probe/6":  "feasible=true failed=10/e91f1f8531088f79",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nvars := 120 + rng.Intn(80)
		s := New()
		if !addAll(s, nvars, threshold3SAT(rng, nvars)) {
			got[fmt.Sprintf("plain/%d", seed)] = "refuted at AddClause"
			continue
		}
		got[fmt.Sprintf("plain/%d", seed)] = solveFingerprint(s)

		assumps := make([]Lit, 3)
		for i := range assumps {
			assumps[i] = MkLit(1+rng.Intn(nvars), rng.Intn(2) == 0)
		}
		got[fmt.Sprintf("assume/%d", seed)] = solveFingerprint(s, assumps...)

		// Binary clauses true in the plain model give probing implication
		// chains to follow without making the formula unsatisfiable.
		if model := s.Model(); len(model) > 0 {
			for i := 0; i < nvars; i++ {
				a, b := 1+rng.Intn(nvars), 1+rng.Intn(nvars)
				s.AddClause(MkLit(a, !model[a]), MkLit(b, rng.Intn(2) == 0))
			}
		}
		failed, feasible := s.ProbeUnder(assumps[:1], 1)
		h := fnv.New64a()
		fmt.Fprint(h, failed)
		got[fmt.Sprintf("probe/%d", seed)] = fmt.Sprintf("feasible=%v failed=%d/%x", feasible, len(failed), h.Sum64())
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s:\n got  %s\n want %s", k, g, want[k])
		}
	}
}
