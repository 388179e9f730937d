package sat

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// dimacs converts a DIMACS-style signed int to a Lit.
func dimacs(v int) Lit {
	if v < 0 {
		return MkLit(-v, true)
	}
	return MkLit(v, false)
}

// randomInstance generates a random k-SAT instance near the phase
// transition, hard enough to force conflicts and restarts.
func randomInstance(rng *rand.Rand) (int, [][]int) {
	nvars := 20 + rng.Intn(40)
	nclauses := int(float64(nvars) * (3.5 + rng.Float64()))
	clauses := make([][]int, nclauses)
	for i := range clauses {
		k := 2 + rng.Intn(3)
		c := make([]int, k)
		for j := range c {
			v := 1 + rng.Intn(nvars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		clauses[i] = c
	}
	return nvars, clauses
}

func buildSolver(nvars int, clauses [][]int) (*Solver, bool) {
	s := New()
	for s.NumVars() < nvars {
		s.NewVar()
	}
	for _, c := range clauses {
		lits := make([]Lit, len(c))
		for j, v := range c {
			lits[j] = dimacs(v)
		}
		if !s.AddClause(lits...) {
			return s, false
		}
	}
	return s, true
}

// refStatus solves clauses on a solver nobody interrupts.
func refStatus(nvars int, clauses [][]int) Status {
	ref, ok := buildSolver(nvars, clauses)
	if !ok {
		return Unsat
	}
	return ref.Solve()
}

func modelSatisfies(s *Solver, clauses [][]int) bool {
	for _, c := range clauses {
		sat := false
		for _, v := range c {
			val := s.ValueOf(abs(v))
			if v < 0 {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestDBReductionRuns asserts the LBD-tiered database reduction fires
// on a hard instance and the verdict is still right.
func TestDBReductionRuns(t *testing.T) {
	s := New()
	pigeonhole(s, 7)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(8,7) = %v, want unsat", st)
	}
	if s.DBReductions() == 0 {
		t.Fatal("expected at least one DB reduction on PHP(8,7)")
	}
}

// TestStopFlagMidSolveResume interrupts solves before they start, at
// random points during search, or by a tiny conflict budget, then
// re-solves the same solver with a fresh flag and no budget: whatever
// the interrupted search learned is implied by the clauses, so the
// resumed status matches a reference solve and Sat models satisfy the
// original clauses.
func TestStopFlagMidSolveResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for iter := 0; iter < iters; iter++ {
		nvars, clauses := randomInstance(rng)
		want := refStatus(nvars, clauses)

		s, ok := buildSolver(nvars, clauses)
		if !ok {
			continue
		}
		var flag StopFlag
		s.Stop = &flag
		var wg sync.WaitGroup
		switch iter % 3 {
		case 0:
			// Pre-tripped: Solve must return Unknown immediately.
			flag.Stop()
		case 1:
			// Concurrent flip racing the search: lands anywhere.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
				flag.Stop()
			}()
		case 2:
			// Tiny conflict budget: halts mid-search deterministically.
			s.MaxConflicts = int64(1 + rng.Intn(50))
		}
		st := s.Solve()
		wg.Wait()
		if iter%3 != 2 && st == Unknown && !s.Interrupted() {
			t.Fatalf("iter %d: unexpected budget Unknown", iter)
		}

		s.Stop = &StopFlag{}
		s.MaxConflicts = 0
		got := s.Solve()
		if got != want {
			t.Fatalf("iter %d: resumed status %v, reference %v (clauses %v)", iter, got, want, clauses)
		}
		if got == Sat && !modelSatisfies(s, clauses) {
			t.Fatalf("iter %d: resumed model does not satisfy original clauses %v", iter, clauses)
		}
	}
}

// TestAddClauseBetweenSolves makes sure learnt clauses, saved phases and
// the tiered database keep the solver usable across incremental
// AddClause / Solve cycles.
func TestAddClauseBetweenSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		nvars, clauses := randomInstance(rng)
		s, ok := buildSolver(nvars, clauses)
		if !ok {
			continue
		}
		first := s.Solve()
		// Add a few more clauses and re-solve; compare against a fresh
		// reference over the full set.
		extra := make([][]int, 3)
		for i := range extra {
			c := make([]int, 2)
			for j := range c {
				v := 1 + rng.Intn(nvars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			extra[i] = c
		}
		all := append(append([][]int{}, clauses...), extra...)
		ok = true
		for _, c := range extra {
			lits := make([]Lit, len(c))
			for j, v := range c {
				lits[j] = dimacs(v)
			}
			ok = s.AddClause(lits...) && ok
		}
		want := refStatus(nvars, all)
		var got Status
		if !ok {
			got = Unsat
		} else {
			got = s.Solve()
		}
		if first == Unsat {
			want = Unsat // clauses only ever get added
		}
		if got != want {
			t.Fatalf("iter %d: incremental status %v, reference %v", iter, got, want)
		}
		if got == Sat && !modelSatisfies(s, all) {
			t.Fatalf("iter %d: incremental model wrong", iter)
		}
	}
}
