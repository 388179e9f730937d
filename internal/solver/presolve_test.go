package solver

import (
	"math/rand"
	"testing"

	"alive/internal/bv"
	"alive/internal/smt"
)

// TestRingPresolveRefutesWithoutCDCL checks that a top-level
// disequality denying a ring identity never reaches the SAT core, and
// that with the presolve off the core refutes it instead.
func TestRingPresolveRefutesWithoutCDCL(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	// x·(y+1) ≠ x·y + x
	f := b.Ne(b.Mul(x, b.Add(y, b.ConstUint(8, 1))), b.Add(b.Mul(x, y), x))
	s := &Solver{}
	if r := s.Check(b, f); r.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", r.Status)
	}
	if s.Stats.Decided != 1 || s.Stats.CDCLRuns != 0 {
		t.Errorf("stats = %+v, want Decided=1 CDCLRuns=0", s.Stats)
	}
	off := &Solver{DisablePresolve: true}
	if r := off.Check(b, f); r.Status != Unsat {
		t.Fatalf("presolve off: status = %v, want Unsat", r.Status)
	}
	if off.Stats.Decided != 0 || off.Stats.CDCLRuns != 1 {
		t.Errorf("presolve off: stats = %+v, want Decided=0 CDCLRuns=1", off.Stats)
	}
}

// TestNonRingQueriesReachCDCL checks that queries an abstract domain
// could decide, but the ring check cannot, are answered by the SAT
// core with the right status and a satisfying model.
func TestNonRingQueriesReachCDCL(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	for _, c := range []struct {
		name string
		f    []*smt.Term
		want Status
	}{
		{"bitwise-false", []*smt.Term{b.Ult(b.BVOr(x, b.ConstUint(8, 0x80)), b.ConstUint(8, 0x10))}, Unsat},
		{"bitwise-true", []*smt.Term{b.Ult(b.BVAnd(x, b.ConstUint(8, 0x0F)), b.ConstUint(8, 16))}, Sat},
		{"contradiction", []*smt.Term{b.Eq(x, b.ConstUint(8, 3)), b.Ult(b.ConstUint(8, 5), x)}, Unsat},
	} {
		s := &Solver{}
		r := s.Check(b, c.f...)
		if r.Status != c.want {
			t.Fatalf("%s: status = %v, want %v", c.name, r.Status, c.want)
		}
		if r.Status == Sat && !smt.Eval(b.And(c.f...), r.Model).B {
			t.Errorf("%s: returned model does not satisfy the formula", c.name)
		}
		if s.Stats.CDCLRuns != 1 || s.Stats.Decided != 0 {
			t.Errorf("%s: stats = %+v, want CDCLRuns=1 Decided=0", c.name, s.Stats)
		}
	}
}

// TestPresolveOffMatchesOn randomly cross-checks verdicts with the
// presolver enabled and disabled; they must always agree, and Sat
// models from the presolved leg must satisfy the formula.
func TestPresolveOffMatchesOn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 120; iter++ {
		b := smt.NewBuilder()
		w := 8
		x, y := b.Var("x", w), b.Var("y", w)
		c1 := b.Const(bv.New(w, rng.Uint64()))
		c2 := b.Const(bv.New(w, rng.Uint64()))
		var asserts []*smt.Term
		ops := []*smt.Term{
			b.Ult(b.BVAnd(x, c1), c2),
			b.Eq(b.BVOr(x, c1), y),
			b.Ule(b.Add(x, c2), b.Mul(y, c1)),
			b.Ne(b.Lshr(x, b.ConstUint(w, uint64(rng.Intn(10)))), c2),
			b.Slt(b.Sub(x, y), c1),
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			asserts = append(asserts, ops[rng.Intn(len(ops))])
		}
		on := &Solver{}
		off := &Solver{DisablePresolve: true}
		ron := on.Check(b, asserts...)
		roff := off.Check(b, asserts...)
		if ron.Status != roff.Status {
			t.Fatalf("verdict differs with presolve: on=%v off=%v for %s",
				ron.Status, roff.Status, b.And(asserts...))
		}
		if ron.Status == Sat {
			if got := smt.Eval(b.And(asserts...), ron.Model); !got.B {
				t.Fatalf("presolved model does not satisfy %s", b.And(asserts...))
			}
		}
	}
}

// TestPresolveHintsPreserveModels checks the model of a CDCL run on a
// formula an interval analysis would narrow but cannot decide.
func TestPresolveHintsPreserveModels(t *testing.T) {
	b := smt.NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	// x <u 16 refines x; the conjunction is satisfiable only with a
	// specific relationship between x and y the abstraction can't see.
	f := []*smt.Term{
		b.Ult(x, b.ConstUint(8, 16)),
		b.Eq(b.BVXor(x, y), b.ConstUint(8, 0x0F)),
	}
	s := &Solver{}
	r := s.Check(b, f...)
	if r.Status != Sat {
		t.Fatalf("status = %v, want Sat", r.Status)
	}
	if !smt.Eval(b.And(f...), r.Model).B {
		t.Fatal("model does not satisfy the formula")
	}
	if s.Stats.CDCLRuns != 1 {
		t.Errorf("expected one CDCL run, got %+v", s.Stats)
	}
}
