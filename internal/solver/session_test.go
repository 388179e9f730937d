package solver

import (
	"testing"
	"time"

	"alive/internal/bitblast"
	"alive/internal/sat"
	"alive/internal/smt"
)

// TestSessionRetirementSoundness interleaves sat and unsat queries
// through one session: a retired query's guarded clauses
// must never leak into a later query's answer, in either direction.
func TestSessionRetirementSoundness(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{}
	x := b.Var("x", 8)
	y := b.Var("y", 8)

	queries := []struct {
		body *smt.Term
		want Status
	}{
		{b.Eq(b.Add(x, y), b.ConstUint(8, 7)), Sat},
		{b.And(b.Ult(x, y), b.Ult(y, x)), Unsat},
		{b.Eq(x, b.ConstUint(8, 5)), Sat},
		{b.Not(b.Eq(b.BVXor(x, x), b.ConstUint(8, 0))), Unsat},
		{b.And(b.Eq(x, b.ConstUint(8, 3)), b.Eq(y, b.ConstUint(8, 200))), Sat},
	}
	for i, q := range queries {
		r := s.Check(b, q.body)
		if r.Status != q.want {
			t.Fatalf("query %d: got %v, want %v", i, r.Status, q.want)
		}
		if r.Status == Sat {
			if r.Model == nil {
				t.Fatalf("query %d: sat result must carry a model", i)
			}
			if v := smt.Eval(q.body, r.Model); !v.B {
				t.Fatalf("query %d: session model does not satisfy the query", i)
			}
		}
	}
	if s.Stats.IncrementalSolves == 0 || s.Stats.AssumptionLits == 0 {
		t.Fatalf("session counters not accumulated: %+v", s.Stats)
	}
}

// TestSessionAgreesWithFreshSolver runs the same query stream through
// one shared session and through a new Solver per query (a one-query
// session each) and demands identical statuses — the unit-level version
// of the FuzzIncremental invariant.
func TestSessionAgreesWithFreshSolver(t *testing.T) {
	b := smt.NewBuilder()
	sess := Solver{Miter: true}
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	bodies := []*smt.Term{
		b.Eq(b.Mul(x, y), b.ConstUint(4, 6)),
		b.Not(b.Eq(b.Mul(x, y), b.Mul(y, x))),
		b.Not(b.Eq(b.Udiv(b.Mul(x, y), y), x)),
		b.And(b.Ult(b.ConstUint(4, 0), x), b.Eq(b.Mul(x, x), b.ConstUint(4, 9))),
	}
	for i, body := range bodies {
		inc := sess.Check(b, body)
		var fresh Solver
		dir := fresh.Check(b, body)
		if inc.Status != dir.Status {
			t.Fatalf("query %d: %v shared session, %v fresh solver", i, inc.Status, dir.Status)
		}
	}
}

// TestSessionStopMidSolve stops a session in the middle of a hard warm
// solve: the in-flight query and every later one must come back as a
// structured Unknown (stopped) promptly, with no panic and no hang.
func TestSessionStopMidSolve(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{Stop: &sat.StopFlag{}}

	// Warm the session with an easy query first, so the stop lands on a
	// warm solve over an already-populated clause database.
	x := b.Var("x", 32)
	if r := s.Check(b, b.Eq(x, b.ConstUint(32, 1))); r.Status != Sat {
		t.Fatalf("warm-up query: got %v, want sat", r.Status)
	}

	done := make(chan Result, 1)
	go func() { done <- s.Check(b, hardFactoring(b)...) }()
	time.Sleep(50 * time.Millisecond)
	s.Stop.Stop()
	select {
	case r := <-done:
		if r.Status != Unknown || r.Cause != CauseStopped {
			t.Fatalf("stopped session check = %v/%v, want unknown/stopped", r.Status, r.Cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session check did not notice the stop flag within 10s")
	}

	// The flag stays tripped (verify aborts the whole transform), so
	// further session queries must return the same structured Unknown
	// immediately rather than corrupting or blocking.
	r := s.Check(b, b.Eq(x, b.ConstUint(32, 2)))
	if r.Status != Unknown || r.Cause != CauseStopped {
		t.Fatalf("post-stop session check = %v/%v, want unknown/stopped", r.Status, r.Cause)
	}
}

// TestSessionConflictBudget exhausts MaxConflicts inside a session and
// checks the structured cause; the session must stay usable for later,
// easier queries.
func TestSessionConflictBudget(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{MaxConflicts: 1}
	r := s.Check(b, hardFactoring(b)...)
	if r.Status != Unknown || r.Cause != CauseConflictBudget {
		t.Fatalf("budget-limited session check = %v/%v, want unknown/conflict-budget", r.Status, r.Cause)
	}
	x := b.Var("x", 32)
	if r := s.Check(b, b.Eq(x, b.ConstUint(32, 3))); r.Status != Sat {
		t.Fatalf("easy query after budget unknown: got %v, want sat", r.Status)
	}
}

// TestSlicePlanOrder checks the order in which a miter's output bits
// are solved: most-significant first when the disequality holds a
// right shift, least-significant first for adders and left shifts.
func TestSlicePlanOrder(t *testing.T) {
	const w = 8
	b := smt.NewBuilder()
	x, c1, c2 := b.Var("x", w), b.Var("c1", w), b.Var("c2", w)
	sum := b.Add(c1, c2)
	for _, tc := range []struct {
		name     string
		lhs, rhs *smt.Term
		first    int
	}{
		{"lshr", b.Lshr(b.Lshr(x, c1), c2), b.Lshr(x, sum), w - 1},
		{"ashr", b.Ashr(b.Ashr(x, c1), c2), b.Ashr(x, sum), w - 1},
		{"shl", b.Shl(b.Shl(x, c1), c2), b.Shl(x, sum), 0},
		{"add", b.Add(x, c1), b.Add(x, c2), 0},
	} {
		bl := bitblast.New(sat.New())
		formula := b.Not(b.Eq(tc.lhs, tc.rhs))
		plan, _ := slicePlan(b, bl, formula, bl.Lit(formula), true)
		if len(plan) != w {
			t.Fatalf("%s: %d slices, want %d", tc.name, len(plan), w)
		}
		last := w - 1 - tc.first
		bit := func(i int) sat.Lit {
			return bl.Lit(b.Not(b.Eq(b.Extract(tc.lhs, i, i), b.Extract(tc.rhs, i, i))))
		}
		if plan[0][1] != bit(tc.first) || plan[w-1][1] != bit(last) {
			t.Errorf("%s: slices run from %v to %v, want bit %d (%v) to bit %d (%v)",
				tc.name, plan[0][1], plan[w-1][1], tc.first, bit(tc.first), last, bit(last))
		}
	}
}
