package absint

import (
	"math/rand"
	"testing"

	"alive/internal/bv"
	"alive/internal/smt"
)

func TestValueBasics(t *testing.T) {
	c := FromConst(bv.New(8, 42))
	if s, ok := c.Singleton(); !ok || s.Uint64() != 42 {
		t.Fatalf("FromConst not a singleton: %v", c)
	}
	if !c.ContainsBV(bv.New(8, 42)) || c.ContainsBV(bv.New(8, 43)) {
		t.Fatal("ContainsBV wrong on singleton")
	}
	top := TopBV(8)
	for _, v := range []uint64{0, 1, 127, 128, 255} {
		if !top.ContainsBV(bv.New(8, v)) {
			t.Fatalf("top must contain %d", v)
		}
	}
	if m := Meet(c, FromConst(bv.New(8, 7))); !m.IsBot() {
		t.Fatalf("meet of distinct singletons must be bot, got %v", m)
	}
	j := Join(c, FromConst(bv.New(8, 7)))
	if !j.ContainsBV(bv.New(8, 42)) || !j.ContainsBV(bv.New(8, 7)) {
		t.Fatal("join must contain both operands")
	}
	if !FromBool(true).ContainsBool(true) || FromBool(true).ContainsBool(false) {
		t.Fatal("bool containment wrong")
	}
}

func TestReduceCrossTightening(t *testing.T) {
	// Unsigned interval [0x40, 0x4F]: the high nibble is known 0100.
	v := TopBV(8)
	v.ULo, v.UHi = bv.New(8, 0x40), bv.New(8, 0x4F)
	v = v.reduce()
	if v.KO.Uint64() != 0x40 || v.KZ.Uint64() != 0xB0 {
		t.Errorf("agreeing high bits not learned: kz=%s ko=%s", v.KZ, v.KO)
	}
	if v.SLo.Int64() != 0x40 || v.SHi.Int64() != 0x4F {
		t.Errorf("signed bounds not exchanged: [%s,%s]", v.SLo, v.SHi)
	}
	// A known-one sign bit clips the signed range to the negatives.
	n := TopBV(8)
	n.KO = bv.New(8, 0x80)
	n = n.reduce()
	if n.SHi.Int64() != -1 {
		t.Errorf("sign-known-one should cap SHi at -1, got %s", n.SHi)
	}
	if n.ULo.Uint64() != 0x80 {
		t.Errorf("known bits should raise ULo to 0x80, got %s", n.ULo)
	}
}

// randomTerm builds a random term DAG over the given variables.
func randomTerm(rng *rand.Rand, b *smt.Builder, vars []*smt.Term, depth int) *smt.Term {
	w := vars[0].Width
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return b.Const(bv.New(w, rng.Uint64()))
		}
		return vars[rng.Intn(len(vars))]
	}
	x := randomTerm(rng, b, vars, depth-1)
	y := randomTerm(rng, b, vars, depth-1)
	switch rng.Intn(14) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.BVAnd(x, y)
	case 4:
		return b.BVOr(x, y)
	case 5:
		return b.BVXor(x, y)
	case 6:
		return b.BVNot(x)
	case 7:
		return b.Neg(x)
	case 8:
		return b.Shl(x, y)
	case 9:
		return b.Lshr(x, y)
	case 10:
		return b.Ashr(x, y)
	case 11:
		return b.Udiv(x, y)
	case 12:
		return b.Urem(x, y)
	default:
		return b.Ite(b.Ult(x, y), x, y)
	}
}

// TestDifferentialRandom cross-checks abstract values against concrete
// evaluation: for random term DAGs and random models, the concrete
// value must lie inside the abstract one.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 4, 8, 64} {
		for iter := 0; iter < 300; iter++ {
			b := smt.NewBuilder()
			vars := []*smt.Term{b.Var("x", w), b.Var("y", w), b.Var("z", w)}
			term := randomTerm(rng, b, vars, 4)
			an := New()
			av := an.Of(term)
			for trial := 0; trial < 8; trial++ {
				m := smt.NewModel()
				for _, v := range vars {
					m.BVs[v.Name] = bv.New(w, rng.Uint64())
				}
				got := smt.Eval(term, m)
				if !av.ContainsBV(got.V) {
					t.Fatalf("w=%d term %s: concrete %s outside abstract %v", w, term, got.V, av)
				}
			}
		}
	}
}

// TestDifferentialBoolRandom does the same for Bool-sorted roots built
// from comparisons and connectives.
func TestDifferentialBoolRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 400; iter++ {
		b := smt.NewBuilder()
		w := 8
		vars := []*smt.Term{b.Var("x", w), b.Var("y", w)}
		x := randomTerm(rng, b, vars, 3)
		y := randomTerm(rng, b, vars, 3)
		var root *smt.Term
		switch rng.Intn(6) {
		case 0:
			root = b.Ult(x, y)
		case 1:
			root = b.Slt(x, y)
		case 2:
			root = b.Eq(x, y)
		case 3:
			root = b.And(b.Ule(x, y), b.Ne(x, y))
		case 4:
			root = b.Implies(b.Sle(x, y), b.Eq(x, y))
		default:
			root = b.Or(b.Ult(x, y), b.Uge(x, y))
		}
		av := New().Of(root)
		for trial := 0; trial < 8; trial++ {
			m := smt.NewModel()
			for _, v := range vars {
				m.BVs[v.Name] = bv.New(w, rng.Uint64())
			}
			got := smt.Eval(root, m)
			if !av.ContainsBool(got.B) {
				t.Fatalf("root %s: concrete %v outside abstract %v", root, got.B, av)
			}
		}
	}
}

func TestRefinementNarrowing(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	// x <u 16 caps the unsigned range.
	an := Refined(b.Ult(x, b.ConstUint(8, 16)))
	if v := an.Of(x); !v.UHi.Eq(bv.New(8, 15)) {
		t.Errorf("x <u 16 should cap UHi at 15, got %v", v)
	}
	// x != 0 && x <u 16: endpoint exclusion raises the lower bound.
	an = Refined(b.And(b.Ne(x, b.ConstUint(8, 0)), b.Ult(x, b.ConstUint(8, 16))))
	if v := an.Of(x); !v.ULo.Eq(bv.New(8, 1)) || !v.UHi.Eq(bv.New(8, 15)) {
		t.Errorf("refined range should be [1,15], got %v", v)
	}
	// (x & 0xF0) = 0x40 pins the high nibble.
	an = Refined(b.Eq(b.BVAnd(x, b.ConstUint(8, 0xF0)), b.ConstUint(8, 0x40)))
	if v := an.Of(x); v.KO.Uint64() != 0x40 || v.KZ.Uint64() != 0xB0 {
		t.Errorf("masked equality should pin high nibble, got %v", v)
	}
	// The refined facts decide a downstream comparison.
	an = Refined(b.Ult(x, b.ConstUint(8, 16)))
	if g := an.Of(b.Ult(x, b.ConstUint(8, 32))); g.B != BTrue {
		t.Errorf("x<16 should imply x<32, got %v", g)
	}
}

func TestRefinementContradiction(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	an := Refined(
		b.Eq(x, b.ConstUint(8, 3)),
		b.Ult(b.ConstUint(8, 5), x),
	)
	an.Of(x)
	if !an.Contradiction() {
		t.Error("x=3 ∧ 5<x must be a contradiction")
	}
	// Consistent assertions must not report one.
	an = Refined(b.Eq(x, b.ConstUint(8, 7)), b.Ult(b.ConstUint(8, 5), x))
	an.Of(x)
	if an.Contradiction() {
		t.Error("x=7 ∧ 5<x is satisfiable")
	}
}

// TestRefinementSoundOnModels replays refined analyses against models
// that satisfy the assertions: every concrete value must stay inside
// the refined abstraction.
func TestRefinementSoundOnModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := 8
	for iter := 0; iter < 300; iter++ {
		b := smt.NewBuilder()
		vars := []*smt.Term{b.Var("x", w), b.Var("y", w)}
		x := randomTerm(rng, b, vars, 2)
		y := randomTerm(rng, b, vars, 2)
		var assert *smt.Term
		switch rng.Intn(5) {
		case 0:
			assert = b.Ult(x, y)
		case 1:
			assert = b.Sle(x, y)
		case 2:
			assert = b.Eq(x, y)
		case 3:
			assert = b.Ne(x, y)
		default:
			assert = b.And(b.Ule(x, y), b.Ne(y, b.ConstUint(w, 0)))
		}
		an := Refined(assert)
		for trial := 0; trial < 16; trial++ {
			m := smt.NewModel()
			for _, v := range vars {
				m.BVs[v.Name] = bv.New(w, rng.Uint64())
			}
			if !smt.Eval(assert, m).B {
				continue // model does not satisfy the assumption
			}
			if an.Contradiction() {
				t.Fatalf("assert %s has a model but analysis claims contradiction", assert)
			}
			for _, v := range vars {
				if av := an.Of(v); !av.ContainsBV(m.BVs[v.Name]) {
					t.Fatalf("assert %s: %s=%s outside refined %v", assert, v.Name, m.BVs[v.Name], av)
				}
			}
			if got := smt.Eval(x, m); !an.Of(x).ContainsBV(got.V) {
				t.Fatalf("assert %s: lhs %s outside refined %v", assert, got.V, an.Of(x))
			}
		}
	}
}

// TestUnconditionalValueFolds checks the abstract values the solver's
// presolve decides a query by: a comparison the domain settles for
// every assignment is a constant Bool, and an undecided term is no
// singleton.
func TestUnconditionalValueFolds(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	// (x | 0x80) is always >=u 0x80, so the comparison folds.
	cmp := b.Ult(b.BVOr(x, b.ConstUint(8, 0x80)), b.ConstUint(8, 0x10))
	if got := New().Of(cmp); got.B != BFalse {
		t.Errorf("Of(%s) = %v, want false", cmp, got)
	}
	// (x & 0x0F) <u 16 is always true.
	cmp = b.Ult(b.BVAnd(x, b.ConstUint(8, 0x0F)), b.ConstUint(8, 16))
	if got := New().Of(cmp); got.B != BTrue {
		t.Errorf("Of(%s) = %v, want true", cmp, got)
	}
	keep := b.Add(x, b.Var("y", 8))
	if got, ok := New().Of(keep).Singleton(); ok {
		t.Errorf("Of(%s) is the singleton %s, want undecided", keep, got)
	}
}

func TestNoWrapHelpers(t *testing.T) {
	w := 8
	small := TopBV(w)
	small.UHi = bv.New(w, 0x0F)
	small = small.reduce()
	big := TopBV(w)
	big.ULo = bv.New(w, 0xF0)
	big = big.reduce()
	top := TopBV(w)
	if got := AddNoUnsignedWrap(small, small); got != BTrue {
		t.Errorf("0x0F+0x0F cannot wrap, got %v", got)
	}
	if got := AddNoUnsignedWrap(big, big); got != BFalse {
		t.Errorf("0xF0+0xF0 always wraps, got %v", got)
	}
	if got := AddNoUnsignedWrap(top, top); got != BTop {
		t.Errorf("top+top is unknown, got %v", got)
	}
	if got := AddNoSignedWrap(small, small); got != BTrue {
		t.Errorf("[0,15]+[0,15] cannot wrap signed, got %v", got)
	}
	if got := SubNoUnsignedWrap(big, small); got != BTrue {
		t.Errorf("[240,255]-[0,15] cannot borrow, got %v", got)
	}
	if got := SubNoUnsignedWrap(small, big); got != BFalse {
		t.Errorf("[0,15]-[240,255] always borrows, got %v", got)
	}
	if got := MulNoUnsignedWrap(small, small); got != BTrue {
		t.Errorf("[0,15]*[0,15] fits in 8 bits, got %v", got)
	}
	tiny := TopBV(w)
	tiny.UHi = bv.New(w, 11)
	tiny = tiny.reduce()
	if got := MulNoSignedWrap(tiny, tiny); got != BTrue {
		t.Errorf("[0,11]*[0,11] fits signed (121 <= 127), got %v", got)
	}
	if got := MulNoSignedWrap(small, small); got != BTop {
		t.Errorf("[0,15]*[0,15] can reach 225 > 127, got %v", got)
	}
	one := FromConst(bv.New(w, 1))
	if got := ShlNoUnsignedWrap(small, one); got != BTrue {
		t.Errorf("[0,15]<<1 fits, got %v", got)
	}
	if got := ShlNoSignedWrap(small, one); got != BTrue {
		t.Errorf("[0,15]<<1 fits signed, got %v", got)
	}
}

func TestIntRange(t *testing.T) {
	r := NewIntRange(1, 64)
	if r.Empty() || !r.Contains(1) || !r.Contains(64) || r.Contains(0) {
		t.Fatal("basic containment wrong")
	}
	if got := r.Intersect(NewIntRange(8, 8)); got != NewIntRange(8, 8) {
		t.Fatalf("intersect = %v", got)
	}
	if s, ok := NewIntRange(8, 8).Single(); !ok || s != 8 {
		t.Fatal("singleton detection wrong")
	}
	if !NewIntRange(9, 8).Empty() {
		t.Fatal("inverted range must be empty")
	}
	if got := r.RaiseLo(10).LowerHi(20); got != NewIntRange(10, 20) {
		t.Fatalf("raise/lower = %v", got)
	}
}
