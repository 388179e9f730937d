package smt

import (
	"testing"

	"alive/internal/bv"
)

// TestInternIdentity checks the hash-consing key field by field: each
// pair of constructions differs in one part of a term's structure and
// must give distinct terms, and each construction repeated must give the
// same pointer. Simplification is off, so each construction makes the
// node it names.
func TestInternIdentity(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 8), b.Var("y", 8)
	w16 := b.Var("w", 16)
	p := make([]*Term, 7)
	for i := range p {
		p[i] = b.BoolVar(string(rune('a' + i)))
	}
	high := bv.New(100, 5).Or(bv.One(100).Shl(bv.New(100, 80)))
	for _, tc := range []struct {
		name string
		a, c func() *Term
	}{
		{"kind", func() *Term { return b.Add(x, y) }, func() *Term { return b.Mul(x, y) }},
		{"width", func() *Term { return b.ZExt(x, 16) }, func() *Term { return b.ZExt(x, 32) }},
		{"extract bounds", func() *Term { return b.Extract(w16, 3, 0) }, func() *Term { return b.Extract(w16, 4, 1) }},
		{"bool payload", func() *Term { return b.Bool(true) }, func() *Term { return b.Bool(false) }},
		{"constant low word", func() *Term { return b.ConstUint(8, 1) }, func() *Term { return b.ConstUint(8, 2) }},
		{"constant width", func() *Term { return b.ConstUint(4, 1) }, func() *Term { return b.ConstUint(8, 1) }},
		{"constant high word only", func() *Term { return b.Const(bv.New(100, 5)) }, func() *Term { return b.Const(high) }},
		{"variable name", func() *Term { return b.Var("x", 8) }, func() *Term { return b.Var("y", 8) }},
		{"variable width only", func() *Term { return b.Var("x", 8) }, func() *Term { return b.Var("x", 4) }},
		{"bool and bit-vector variable", func() *Term { return b.BoolVar("x") }, func() *Term { return b.Var("x", 1) }},
		{"third argument present", func() *Term { return b.And(p[0], p[1]) }, func() *Term { return b.And(p[0], p[1], p[2]) }},
		{"fourth argument present", func() *Term { return b.And(p[0], p[1], p[2]) }, func() *Term { return b.And(p[0], p[1], p[2], p[3]) }},
		{"fourth argument", func() *Term { return b.And(p[0], p[1], p[2], p[3], p[5]) }, func() *Term { return b.And(p[0], p[1], p[2], p[4], p[5]) }},
		{"fifth argument", func() *Term { return b.And(p[0], p[1], p[2], p[3], p[4]) }, func() *Term { return b.And(p[0], p[1], p[2], p[3], p[5]) }},
		{"sixth argument present", func() *Term { return b.Or(p[0], p[1], p[2], p[3], p[4]) }, func() *Term { return b.Or(p[0], p[1], p[2], p[3], p[4], p[6]) }},
		{"argument order of sub", func() *Term { return b.Sub(x, y) }, func() *Term { return b.Sub(y, x) }},
		{"argument order of ult", func() *Term { return b.Ult(x, y) }, func() *Term { return b.Ult(y, x) }},
		{"argument order of implies", func() *Term { return b.Implies(p[0], p[1]) }, func() *Term { return b.Implies(p[1], p[0]) }},
	} {
		a, c := tc.a(), tc.c()
		if a == c {
			t.Errorf("%s: %v and %v are one term", tc.name, a, c)
		}
		if tc.a() != a || tc.c() != c {
			t.Errorf("%s: a repeated construction made a new term", tc.name)
		}
	}
}

// TestWideConstantKey checks constants wider than one word, which the
// key holds word by word: two 100-bit constants that differ only in
// their high word are distinct, and equal ones are shared.
func TestWideConstantKey(t *testing.T) {
	b := NewBuilder()
	lo := bv.New(100, 7)
	hi := lo.Or(bv.One(100).Shl(bv.New(100, 99)))
	if b.Const(lo) == b.Const(hi) {
		t.Fatal("100-bit constants differing in the high word share a term")
	}
	if b.Const(hi) != b.Const(lo.Or(bv.One(100).Shl(bv.New(100, 99)))) {
		t.Fatal("equal 100-bit constants are distinct terms")
	}
	if b.Const(bv.New(128, 7)) == b.Const(lo) {
		t.Fatal("equal words at different widths share a term")
	}
}

// TestInternHitAllocates checks that a construction the builder already
// has allocates nothing: the key is built on the stack and the argument
// list is copied only into a new term. A constant wider than 64 bits, or
// an And or Or of more than three arguments, builds its key's string
// part, which is one allocation.
func TestInternHitAllocates(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	p, q := b.BoolVar("p"), b.BoolVar("q")
	c := bv.New(8, 3)
	build := func() {
		b.Var("x", 8)
		b.BoolVar("p")
		b.Const(c)
		b.Bool(true)
		b.Add(x, y)
		b.Add(x, b.Const(c))
		b.Mul(x, y)
		b.BVAnd(x, y)
		b.BVXor(x, y)
		b.Sub(x, y)
		b.Shl(x, y)
		b.Udiv(x, y)
		b.Neg(x)
		b.BVNot(x)
		b.Ult(x, y)
		b.Sle(x, y)
		b.Eq(x, y)
		b.Ne(x, y)
		b.Not(p)
		b.And(p, q)
		b.Or(p, q, b.Not(p))
		b.Xor(p, q)
		b.Implies(p, q)
		b.Ite(p, x, y)
		b.ZExt(x, 16)
		b.SExt(x, 16)
		b.Extract(x, 3, 0)
		b.Concat(x, y)
	}
	build()
	if n := testing.AllocsPerRun(100, build); n != 0 {
		t.Errorf("constructions that hit the cache allocate %.1f objects, want 0", n)
	}
}
