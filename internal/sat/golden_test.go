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

// longSearch builds the long golden instance: threshold 3-SAT over 240
// variables from seed 1, plus ten two-literal assumption sets drawn from
// the same source. Its solves run tens of thousands of conflicts, so the
// learnt database is reduced many times and the clause arena compacts.
func longSearch() (*Solver, [][]Lit) {
	const nvars = 240
	rng := rand.New(rand.NewSource(1))
	s := New()
	if !addAll(s, nvars, threshold3SAT(rng, nvars)) {
		panic("long instance refuted at AddClause")
	}
	sets := make([][]Lit, 10)
	for i := range sets {
		sets[i] = []Lit{MkLit(1+rng.Intn(nvars), rng.Intn(2) == 0), MkLit(1+rng.Intn(nvars), rng.Intn(2) == 0)}
	}
	return s, sets
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
// assumptions and a ProbeUnder over them. The long cases add a search
// long enough for clause deletion, arena compaction and reason
// forwarding to shape it: a plain solve, ten solves under assumptions
// and a ProbeUnder, each with the database's reduction count and size.
// The inner loops may get cheaper, but every decision, propagation and
// learnt clause must stay the same; a change that means to alter the
// search regenerates these values and says why.
func TestGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"plain/1":  "sat conflicts=41 decisions=73 propagations=1212 restarts=0 hash=963915f60b3b56c8",
		"assume/1": "sat conflicts=0 decisions=20 propagations=121 restarts=0 hash=963915f60b3b56c8",
		"probe/1":  "feasible=true failed=0/9612b07b5ecb5a5",
		"plain/2":  "sat conflicts=4217 decisions=5243 propagations=154341 restarts=24 hash=6ba006850724c82b",
		"assume/2": "unsat conflicts=647 decisions=793 propagations=22950 restarts=5 hash=266bd1de350842f4",
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

		"long/plain":     "sat conflicts=834 decisions=1150 propagations=39374 restarts=6 hash=9e57d0efb0937193 reductions=0 learnts=834",
		"long/assume/1":  "sat conflicts=9861 decisions=12289 propagations=434728 restarts=46 hash=b10e03f29838b700 reductions=4 learnts=5467",
		"long/assume/2":  "sat conflicts=2506 decisions=3163 propagations=115365 restarts=14 hash=c535f4d9a27b064a reductions=5 learnts=5935",
		"long/assume/3":  "sat conflicts=0 decisions=30 propagations=240 restarts=0 hash=c535f4d9a27b064a reductions=5 learnts=5935",
		"long/assume/4":  "sat conflicts=3401 decisions=4116 propagations=146353 restarts=16 hash=3044c81428e736b6 reductions=6 learnts=7062",
		"long/assume/5":  "sat conflicts=0 decisions=41 propagations=240 restarts=0 hash=3044c81428e736b6 reductions=6 learnts=7062",
		"long/assume/6":  "sat conflicts=0 decisions=42 propagations=240 restarts=0 hash=ff69b850cfbe5627 reductions=6 learnts=7062",
		"long/assume/7":  "sat conflicts=4372 decisions=5353 propagations=191684 restarts=27 hash=3ff816c8f748c22a reductions=7 learnts=8840",
		"long/assume/8":  "unsat conflicts=11791 decisions=14032 propagations=490636 restarts=52 hash=1abaca82a7839824 reductions=9 learnts=15219",
		"long/assume/9":  "sat conflicts=3030 decisions=3833 propagations=126707 restarts=28 hash=ff6a98eb35514805 reductions=10 learnts=15288",
		"long/assume/10": "sat conflicts=0 decisions=38 propagations=240 restarts=0 hash=b4e99c05fd5bd6cf reductions=10 learnts=15288",
		"long/probe":     "feasible=true failed=0/9612b07b5ecb5a5 reductions=10 learnts=15288",
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
	s, sets := longSearch()
	db := func() string { return fmt.Sprintf(" reductions=%d learnts=%d", s.DBReductions(), s.NumLearnts()) }
	got["long/plain"] = solveFingerprint(s) + db()
	for i, set := range sets {
		got[fmt.Sprintf("long/assume/%d", i+1)] = solveFingerprint(s, set...) + db()
	}
	failed, feasible := s.ProbeUnder(sets[len(sets)-1], 1)
	h := fnv.New64a()
	fmt.Fprint(h, failed)
	got["long/probe"] = fmt.Sprintf("feasible=%v failed=%d/%x", feasible, len(failed), h.Sum64()) + db()

	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s:\n got  %s\n want %s", k, g, want[k])
		}
	}
}
