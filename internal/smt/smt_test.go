package smt

import (
	"testing"
	"testing/quick"

	"alive/internal/bv"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	if b.Var("x", 8) != x {
		t.Fatal("identical variables should be pointer-equal")
	}
	if b.Add(x, y) != b.Add(x, y) {
		t.Fatal("identical terms should be pointer-equal")
	}
	if b.Add(x, y) != b.Add(y, x) {
		t.Fatal("commutative canonicalization should make add(x,y) == add(y,x)")
	}
	if b.Var("x", 8) == b.Var("x", 4) {
		t.Fatal("same name, different width must differ")
	}
	if b.Var("x", 8) == b.BoolVar("x") {
		t.Fatal("BV and Bool variable of same name must differ")
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	c3 := b.ConstUint(8, 3)
	c5 := b.ConstUint(8, 5)
	cases := []struct {
		got  *Term
		want uint64
	}{
		{b.Add(c3, c5), 8},
		{b.Sub(c3, c5), 0xFE},
		{b.Mul(c3, c5), 15},
		{b.BVAnd(c3, c5), 1},
		{b.BVOr(c3, c5), 7},
		{b.BVXor(c3, c5), 6},
		{b.Udiv(c5, c3), 1},
		{b.Urem(c5, c3), 2},
		{b.Shl(c3, b.ConstUint(8, 2)), 12},
		{b.Lshr(b.ConstUint(8, 0x80), b.ConstUint(8, 3)), 0x10},
		{b.Ashr(b.ConstUint(8, 0x80), b.ConstUint(8, 3)), 0xF0},
		{b.Neg(c3), 0xFD},
		{b.BVNot(c3), 0xFC},
		{b.ZExt(b.ConstUint(4, 0xF), 8), 0x0F},
		{b.SExt(b.ConstUint(4, 0xF), 8), 0xFF},
		{b.Extract(b.ConstUint(8, 0xAB), 7, 4), 0xA},
		{b.Concat(b.ConstUint(4, 0xA), b.ConstUint(4, 0xB)), 0xAB},
	}
	for i, c := range cases {
		if c.got.Kind != KBVConst {
			t.Errorf("case %d: not folded to constant: %s", i, c.got)
			continue
		}
		if c.got.Val.Uint64() != c.want {
			t.Errorf("case %d: folded to %#x, want %#x", i, c.got.Val.Uint64(), c.want)
		}
	}
}

func TestBoolSimplifications(t *testing.T) {
	b := NewBuilder()
	p := b.BoolVar("p")
	q := b.BoolVar("q")
	if b.And() != b.True() || b.Or() != b.False() {
		t.Error("empty and/or wrong")
	}
	if b.And(p, b.True()) != p || b.Or(p, b.False()) != p {
		t.Error("identity elements not removed")
	}
	if !b.And(p, b.False()).IsFalse() || !b.Or(p, b.True()).IsTrue() {
		t.Error("absorbing elements not applied")
	}
	if !b.And(p, b.Not(p)).IsFalse() {
		t.Error("p & !p should fold to false")
	}
	if !b.Or(p, b.Not(p)).IsTrue() {
		t.Error("p | !p should fold to true")
	}
	if b.And(p, p) != p || b.Or(p, p) != p {
		t.Error("idempotence not applied")
	}
	if b.Not(b.Not(p)) != p {
		t.Error("double negation not removed")
	}
	if !b.Implies(b.False(), p).IsTrue() || b.Implies(b.True(), p) != p {
		t.Error("implies simplification wrong")
	}
	if !b.Eq(p, p).IsTrue() {
		t.Error("p = p should be true")
	}
	if b.Xor(p, b.False()) != p || b.Xor(p, b.True()) != b.Not(p) {
		t.Error("xor simplification wrong")
	}
	if !b.Xor(p, p).IsFalse() {
		t.Error("p ^ p should be false")
	}
	// And flattening.
	f := b.And(b.And(p, q), p)
	if f.Kind != KAnd || len(f.Args) != 2 {
		t.Errorf("nested and should flatten and dedup: %s", f)
	}
}

func TestIteSimplifications(t *testing.T) {
	b := NewBuilder()
	p := b.BoolVar("p")
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	if b.Ite(b.True(), x, y) != x || b.Ite(b.False(), x, y) != y {
		t.Error("constant condition not simplified")
	}
	if b.Ite(p, x, x) != x {
		t.Error("equal branches not simplified")
	}
	if b.Ite(p, b.True(), b.False()) != p {
		t.Error("bool ite to condition not simplified")
	}
	if b.Ite(p, b.False(), b.True()) != b.Not(p) {
		t.Error("bool ite to negated condition not simplified")
	}
	if b.Ite(b.Not(p), x, y) != b.Ite(p, y, x) {
		t.Error("negated condition should swap branches")
	}
}

func TestBVSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	zero := b.ConstUint(8, 0)
	ones := b.Const(bv.Ones(8))
	if b.Add(x, zero) != x || b.Sub(x, zero) != x {
		t.Error("additive identity not removed")
	}
	if !b.Sub(x, x).IsConst() {
		t.Error("x - x should fold to 0")
	}
	if b.BVAnd(x, ones) != x || b.BVAnd(x, zero) != zero {
		t.Error("and identity/absorber wrong")
	}
	if b.BVOr(x, zero) != x || b.BVOr(x, ones) != ones {
		t.Error("or identity/absorber wrong")
	}
	if b.BVXor(x, zero) != x {
		t.Error("xor identity wrong")
	}
	if b.BVXor(x, ones) != b.BVNot(x) {
		t.Error("xor with ones should become not")
	}
	if !b.BVXor(x, x).IsConst() {
		t.Error("x ^ x should fold to 0")
	}
	if b.Mul(x, b.ConstUint(8, 1)) != x {
		t.Error("multiplicative identity not removed")
	}
	if b.Mul(x, zero) != zero {
		t.Error("multiplication by zero not folded")
	}
	if b.Neg(b.Neg(x)) != x || b.BVNot(b.BVNot(x)) != x {
		t.Error("double negation not removed")
	}
	if !b.Eq(x, x).IsTrue() {
		t.Error("x = x should be true")
	}
	if !b.Ult(x, x).IsFalse() || !b.Ule(x, x).IsTrue() {
		t.Error("reflexive comparisons wrong")
	}
	if b.ZExt(x, 8) != x || b.SExt(x, 8) != x || b.Extract(x, 7, 0) != x {
		t.Error("identity width changes should be no-ops")
	}
}

func TestSimplifyOff(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	c3 := b.ConstUint(8, 3)
	c5 := b.ConstUint(8, 5)
	if b.Add(c3, c5).Kind != KBVAdd {
		t.Error("with Simplify off, constants should not fold")
	}
	m := NewModel()
	got := Eval(b.Add(c3, c5), m)
	if got.V.Uint64() != 8 {
		t.Errorf("eval of unfolded term = %d, want 8", got.V.Uint64())
	}
}

// TestEvalMatchesFolding property-checks that evaluating an unsimplified
// term graph agrees with constructor-time constant folding.
func TestEvalMatchesFolding(t *testing.T) {
	type binCase struct {
		name  string
		apply func(b *Builder, x, y *Term) *Term
	}
	ops := []binCase{
		{"add", (*Builder).Add}, {"sub", (*Builder).Sub}, {"mul", (*Builder).Mul},
		{"udiv", (*Builder).Udiv}, {"urem", (*Builder).Urem},
		{"sdiv", (*Builder).Sdiv}, {"srem", (*Builder).Srem},
		{"and", (*Builder).BVAnd}, {"or", (*Builder).BVOr}, {"xor", (*Builder).BVXor},
		{"shl", (*Builder).Shl}, {"lshr", (*Builder).Lshr}, {"ashr", (*Builder).Ashr},
	}
	for _, op := range ops {
		op := op
		f := func(a, c uint64) bool {
			const w = 8
			folded := NewBuilder()
			fx := op.apply(folded, folded.ConstUint(w, a), folded.ConstUint(w, c))

			plain := NewBuilder()
			plain.Simplify = false
			x, y := plain.Var("x", w), plain.Var("y", w)
			g := op.apply(plain, x, y)
			m := NewModel()
			m.BVs["x"] = bv.New(w, a)
			m.BVs["y"] = bv.New(w, c)
			if fx.Kind != KBVConst {
				return false // all binops on constants must fold
			}
			return Eval(g, m).V.Eq(fx.Val)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", op.name, err)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 8), b.Var("y", 8)
	m := NewModel()
	m.BVs["x"] = bv.New(8, 0xFE) // -2 signed, 254 unsigned
	m.BVs["y"] = bv.New(8, 0x01)
	if !Eval(b.Ugt(x, y), m).B {
		t.Error("254 >u 1 should hold")
	}
	if !Eval(b.Slt(x, y), m).B {
		t.Error("-2 <s 1 should hold")
	}
	if Eval(b.Eq(x, y), m).B {
		t.Error("x != y")
	}
	if !Eval(b.Ne(x, y), m).B {
		t.Error("Ne should hold")
	}
}

func TestEvalBoolOps(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	p, q := b.BoolVar("p"), b.BoolVar("q")
	m := NewModel()
	m.Bools["p"] = true
	m.Bools["q"] = false
	if !Eval(b.Or(q, p), m).B || Eval(b.And(p, q), m).B {
		t.Error("and/or evaluation wrong")
	}
	if !Eval(b.Xor(p, q), m).B {
		t.Error("xor evaluation wrong")
	}
	if Eval(b.Implies(p, q), m).B || !Eval(b.Implies(q, p), m).B {
		t.Error("implies evaluation wrong")
	}
	if !Eval(b.Ite(p, q, b.True()), m).IsBool {
		t.Error("ite should produce bool")
	}
}

func TestSubstitute(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	f := b.Add(x, y)
	got := b.Substitute(f, map[string]*Term{"x": b.ConstUint(8, 2), "y": b.ConstUint(8, 3)})
	if got.Kind != KBVConst || got.Val.Uint64() != 5 {
		t.Fatalf("substitution should fold to 5, got %s", got)
	}
	// Partial substitution.
	got = b.Substitute(f, map[string]*Term{"x": b.ConstUint(8, 0)})
	if got != y {
		t.Fatalf("x:=0 should simplify add(x,y) to y, got %s", got)
	}
	// No-op substitution returns the same pointer.
	if b.Substitute(f, map[string]*Term{"z": b.ConstUint(8, 1)}) != f {
		t.Fatal("substituting an absent variable should be identity")
	}
}

func TestVarsAndSize(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	p := b.BoolVar("p")
	f := b.Ite(p, b.Add(x, y), b.Sub(x, y))
	vars := f.Vars()
	if len(vars) != 3 {
		t.Fatalf("got %d vars, want 3", len(vars))
	}
	if f.Size() < 5 {
		t.Fatalf("Size = %d, want >= 5", f.Size())
	}
}

func TestString(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	s := b.Add(x, b.ConstUint(8, 1)).String()
	if s != "(bvadd x 0x01)" && s != "(bvadd 0x01 x)" {
		t.Errorf("String = %q", s)
	}
	if got := b.Extract(x, 3, 0).String(); got != "((_ extract 3 0) x)" {
		t.Errorf("extract String = %q", got)
	}
	if got := b.ZExt(x, 16).String(); got != "((_ zero_extend 8) x)" {
		t.Errorf("zext String = %q", got)
	}
}

func TestSortMismatchPanics(t *testing.T) {
	b := NewBuilder()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	x8 := b.Var("x", 8)
	x4 := b.Var("y", 4)
	p := b.BoolVar("p")
	mustPanic("width mismatch", func() { b.Add(x8, x4) })
	mustPanic("bool in bv op", func() { b.Add(x8, p) })
	mustPanic("bv in bool op", func() { b.And(x8) })
	mustPanic("eq sort mismatch", func() { b.Eq(x8, p) })
	mustPanic("ite branch mismatch", func() { b.Ite(p, x8, p) })
	mustPanic("zext smaller", func() { b.ZExt(x8, 4) })
	mustPanic("zero width var", func() { b.Var("v", 0) })
}

func TestEvalModelWidthMismatchPanics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	m := NewModel()
	m.BVs["x"] = bv.New(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on model width mismatch")
		}
	}()
	Eval(x, m)
}

func TestACNormalization(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	c1 := b.Var("C1", 8)
	c2 := b.Var("C2", 8)
	// Reassociated products are the same term, even with symbolic
	// constants — the property the corpus' reassociation entries rely on.
	if b.Mul(b.Mul(x, c1), c2) != b.Mul(x, b.Mul(c1, c2)) {
		t.Error("mul must normalize associatively")
	}
	if b.Add(b.Add(x, c1), c2) != b.Add(c2, b.Add(c1, x)) {
		t.Error("add must normalize associatively and commutatively")
	}
	if b.BVAnd(b.BVAnd(x, c1), x) != b.BVAnd(x, c1) {
		t.Error("and must deduplicate across nesting")
	}
	// Xor cancellation through nesting.
	if b.BVXor(b.BVXor(x, c1), c1) != x {
		t.Error("xor pairs must cancel")
	}
	got := b.BVXor(b.BVXor(x, c1), b.BVXor(x, c1))
	if !got.IsConst() || !got.Val.IsZero() {
		t.Errorf("full xor cancellation should give 0, got %s", got)
	}
	// Constant folding through nesting.
	f := b.Add(b.Add(x, b.ConstUint(8, 3)), b.ConstUint(8, 5))
	g := b.Add(x, b.ConstUint(8, 8))
	if f != g {
		t.Errorf("constants should fold through reassociation: %s vs %s", f, g)
	}
	// Subtraction of constants canonicalizes into the add chain.
	h := b.Sub(b.Add(x, b.ConstUint(8, 10)), b.ConstUint(8, 4))
	if h != b.Add(x, b.ConstUint(8, 6)) {
		t.Errorf("sub-const should fold into add chains: %s", h)
	}
	// Absorbing through flattening: (x & c1) & 0 = 0.
	z := b.BVAnd(b.BVAnd(x, c1), b.ConstUint(8, 0))
	if !z.IsConst() || !z.Val.IsZero() {
		t.Errorf("and with zero must absorb, got %s", z)
	}
	// Or with not through nesting.
	o := b.BVOr(b.BVOr(x, c1), b.BVNot(x))
	if !o.IsConst() || !o.Val.IsOnes() {
		t.Errorf("or with complement must be all-ones, got %s", o)
	}
}

func TestACNormalizationSemantics(t *testing.T) {
	// The normalized form must evaluate identically to the plain form.
	plain := NewBuilder()
	plain.Simplify = false
	norm := NewBuilder()
	m := NewModel()
	m.BVs["x"] = bv.New(8, 0xA7)
	m.BVs["y"] = bv.New(8, 0x3C)

	build := func(b *Builder) *Term {
		x, y := b.Var("x", 8), b.Var("y", 8)
		return b.Add(b.Mul(b.Add(x, b.ConstUint(8, 3)), y), b.Sub(x, b.ConstUint(8, 7)))
	}
	pv := Eval(build(plain), m).V
	nv := Eval(build(norm), m).V
	if !pv.Eq(nv) {
		t.Fatalf("normalization changed semantics: %s vs %s", pv, nv)
	}
}

// TestACFlatteningBounded doubles a sum and a product 40 times. An
// unbounded flattening copies the shared operand each time, so the sum
// would end with 2^40 leaves; bounded, the DAG stays linear in the
// number of doublings and still evaluates to 2^40·x and x^(2^40).
func TestACFlatteningBounded(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64)
	sum, prod := x, x
	for i := 0; i < 40; i++ {
		sum = b.Add(sum, sum)
		prod = b.Mul(prod, prod)
	}
	for _, tm := range []*Term{sum, prod} {
		if n := tm.Size(); n > 2*maxACLeaves+40 {
			t.Errorf("40 doublings built %d nodes", n)
		}
	}
	m := NewModel()
	m.BVs["x"] = bv.New(64, 3)
	if got, want := Eval(sum, m).V, bv.New(64, 3<<40); !got.Eq(want) {
		t.Errorf("sum evaluates to %s, want %s", got, want)
	}
	want := uint64(3)
	for i := 0; i < 40; i++ {
		want *= want
	}
	if got := Eval(prod, m).V; got.Uint64() != want {
		t.Errorf("product evaluates to %s, want %#x", got, want)
	}
}

// TestOverWidthShiftFolds checks the constant folds for shift amounts
// >= the operand width: shl and lshr produce zero, ashr replicates the
// sign bit (the same fill semantics bv.Vec and the bit-blaster use).
func TestOverWidthShiftFolds(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	for _, amt := range []uint64{8, 9, 200} {
		y := b.ConstUint(8, amt)
		if got := b.Shl(x, y); !got.IsConst() || !got.Val.IsZero() {
			t.Errorf("shl x, %d = %s, want 0", amt, got)
		}
		if got := b.Lshr(x, y); !got.IsConst() || !got.Val.IsZero() {
			t.Errorf("lshr x, %d = %s, want 0", amt, got)
		}
		want := b.Ashr(x, b.ConstUint(8, 7))
		if got := b.Ashr(x, y); got != want {
			t.Errorf("ashr x, %d = %s, want %s", amt, got, want)
		}
	}
	// Width 1: ashr by >= 1 degenerates to a shift by 0, i.e. x itself.
	x1 := b.Var("x1", 1)
	if got := b.Ashr(x1, b.ConstUint(1, 1)); got != x1 {
		t.Errorf("ashr i1 x, 1 = %s, want x", got)
	}
	// Folding must agree with evaluation of the unsimplified graph.
	plain := NewBuilder()
	plain.Simplify = false
	for _, v := range []uint64{0, 1, 0x80, 0xFF} {
		m := NewModel()
		m.BVs["x"] = bv.New(8, v)
		px := plain.Var("x", 8)
		pa := plain.ConstUint(8, 12)
		for _, op := range []struct {
			name          string
			plainT, foldT *Term
		}{
			{"shl", plain.Shl(px, pa), b.Shl(x, b.ConstUint(8, 12))},
			{"lshr", plain.Lshr(px, pa), b.Lshr(x, b.ConstUint(8, 12))},
			{"ashr", plain.Ashr(px, pa), b.Ashr(x, b.ConstUint(8, 12))},
		} {
			want := Eval(op.plainT, m).V
			got := Eval(op.foldT, m).V
			if !want.Eq(got) {
				t.Errorf("%s x=%#x: fold %s, eval %s", op.name, v, got, want)
			}
		}
	}
}
