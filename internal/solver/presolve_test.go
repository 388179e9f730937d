package solver

import (
	"math/rand"
	"testing"

	"alive/internal/bv"
	"alive/internal/smt"
)

// TestPresolveDischargesWithoutCDCL checks that abstractly decidable
// queries never reach the SAT core.
func TestPresolveDischargesWithoutCDCL(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	s := &Solver{}
	// (x | 0x80) <u 0x10 is abstractly false: Unsat, no CDCL.
	r := s.Check(b, b.Ult(b.BVOr(x, b.ConstUint(8, 0x80)), b.ConstUint(8, 0x10)))
	if r.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", r.Status)
	}
	if s.Stats.CDCLRuns != 0 || s.Stats.Decided != 1 {
		t.Errorf("stats = %+v, want Decided=1 CDCLRuns=0", s.Stats)
	}
	// (x & 0x0F) <u 16 is abstractly true: Sat with the default model.
	s2 := &Solver{}
	r = s2.Check(b, b.Ult(b.BVAnd(x, b.ConstUint(8, 0x0F)), b.ConstUint(8, 16)))
	if r.Status != Sat {
		t.Fatalf("status = %v, want Sat", r.Status)
	}
	if s2.Stats.CDCLRuns != 0 {
		t.Errorf("tautology reached CDCL: %+v", s2.Stats)
	}
	if got := smt.Eval(b.Ult(b.BVAnd(x, b.ConstUint(8, 0x0F)), b.ConstUint(8, 16)), r.Model); !got.B {
		t.Error("returned model does not satisfy the formula")
	}
	// Mutually inconsistent conjuncts: refinement contradiction.
	s3 := &Solver{}
	r = s3.Check(b,
		b.Eq(x, b.ConstUint(8, 3)),
		b.Ult(b.ConstUint(8, 5), x),
	)
	if r.Status != Unsat {
		t.Fatalf("status = %v, want Unsat", r.Status)
	}
	if s3.Stats.CDCLRuns != 0 {
		t.Errorf("contradiction reached CDCL: %+v", s3.Stats)
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

// TestPresolveHintsPreserveModels forces a CDCL run on a formula the
// refinement analysis narrows but cannot decide, and checks the model.
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
