package sat

import "testing"

// FuzzSolve drives the core's API on small random formulas and checks
// each answer by enumeration. The input decodes to at most 10 variables,
// at most 40 clauses of 1–4 literals and up to 4 assumption sets, which
// one solver answers in sequence, probing under each set after solving
// it. Every status must match enumeration, every Sat model must satisfy
// the clauses and the assumptions, every ConflictSubset must be a subset
// of the assumptions that the clauses refute, and every literal
// ProbeUnder reports failed must be refuted by the clauses plus its
// context.
func FuzzSolve(f *testing.F) {
	// x1 → x2 under the assumptions x1, ¬x2: the conflict runs through
	// a propagated literal.
	f.Add([]byte{1, 1, 1, 1, 2, 1, 2, 0, 3})
	f.Add([]byte{9, 40, 2, 0, 3, 5, 2, 7, 9, 11, 3, 13, 15, 17, 19, 1, 4, 6, 2, 8, 10, 4, 3, 1, 2, 3, 2, 5, 6, 4, 7, 8, 9, 10, 0, 3, 12, 14, 16})
	f.Add([]byte("\x05\x14alive peephole optimizations verified by a CDCL core"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%10
		lit := func() Lit {
			b := next()
			return MkLit(1+(b>>1)%n, b&1 == 1)
		}
		clauses := make([][]Lit, next()%41)
		for i := range clauses {
			clauses[i] = make([]Lit, 1+next()%4)
			for j := range clauses[i] {
				clauses[i][j] = lit()
			}
		}
		sets := make([][]Lit, next()%5)
		for i := range sets {
			sets[i] = make([]Lit, next()%5)
			for j := range sets[i] {
				sets[i][j] = lit()
			}
		}

		s := New()
		for s.NumVars() < n {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		for _, set := range sets {
			st := s.Solve(set...)
			if want := satisfiable(n, clauses, set); st != want {
				t.Fatalf("Solve(%v) = %v, enumeration says %v; clauses %v", set, st, want, clauses)
			}
			switch st {
			case Sat:
				holds := func(l Lit) bool { return s.ValueOf(l.Var()) != l.Neg() }
				for _, a := range set {
					if !holds(a) {
						t.Fatalf("Solve(%v): the model falsifies assumption %v", set, a)
					}
				}
				for _, c := range clauses {
					if !anyLit(c, holds) {
						t.Fatalf("Solve(%v): the model falsifies clause %v", set, c)
					}
				}
			case Unsat:
				cs := s.ConflictSubset()
				for _, l := range cs {
					if !ContainsLit(set, l) {
						t.Fatalf("Solve(%v): ConflictSubset %v holds %v, not an assumption", set, cs, l)
					}
				}
				if satisfiable(n, clauses, cs) == Sat {
					t.Fatalf("Solve(%v): the clauses do not refute ConflictSubset %v; clauses %v", set, cs, clauses)
				}
			}

			failed, feasible := s.ProbeUnder(set, 1)
			if !feasible && satisfiable(n, clauses, set) == Sat {
				t.Fatalf("ProbeUnder(%v) reports the context infeasible; clauses %v", set, clauses)
			}
			for _, l := range failed {
				if satisfiable(n, clauses, append(append([]Lit{}, set...), l)) == Sat {
					t.Fatalf("ProbeUnder(%v) reports %v failed, but the clauses allow it; clauses %v", set, l, clauses)
				}
			}
		}
	})
}

// satisfiable decides clauses ∧ units over variables 1..n by
// enumeration.
func satisfiable(n int, clauses [][]Lit, units []Lit) Status {
	for asg := 0; asg < 1<<n; asg++ {
		holds := func(l Lit) bool { return (asg>>(l.Var()-1)&1 == 1) != l.Neg() }
		ok := true
		for _, u := range units {
			ok = ok && holds(u)
		}
		for _, c := range clauses {
			ok = ok && anyLit(c, holds)
		}
		if ok {
			return Sat
		}
	}
	return Unsat
}

// anyLit reports whether some literal of c satisfies holds.
func anyLit(c []Lit, holds func(Lit) bool) bool {
	for _, l := range c {
		if holds(l) {
			return true
		}
	}
	return false
}
