package bitblast

import (
	"math/rand"
	"testing"

	"alive/internal/bv"
	"alive/internal/sat"
	"alive/internal/smt"
)

// solveBits asserts t (Bool term) and returns the status plus a reader for
// model values.
func solveTerm(t *smt.Term) (sat.Status, *Blaster) {
	core := sat.New()
	bl := New(core)
	bl.Assert(t)
	return core.Solve(), bl
}

// valueOf exposes the backing solver's model reader for the var-value
// helpers.
func valueOf(bl *Blaster) func(v int) bool {
	return bl.S.(*sat.Solver).ValueOf
}

func TestConstTrueFalse(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	if st, _ := solveTerm(b.Bool(true)); st != sat.Sat {
		t.Fatal("true should be sat")
	}
	if st, _ := solveTerm(b.Bool(false)); st != sat.Unsat {
		t.Fatal("false should be unsat")
	}
}

func TestSimpleEquality(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	f := b.Eq(b.Add(x, b.ConstUint(8, 1)), b.ConstUint(8, 0))
	st, bl := solveTerm(f)
	if st != sat.Sat {
		t.Fatal("x+1=0 should be sat")
	}
	if got := bl.BVVarValue("x", 8, valueOf(bl)); got.Uint64() != 0xFF {
		t.Fatalf("x = %s, want 0xFF", got)
	}
}

func TestUnsatArithmetic(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 8)
	// x + 1 = x is unsat.
	f := b.Eq(b.Add(x, b.ConstUint(8, 1)), x)
	if st, _ := solveTerm(f); st != sat.Unsat {
		t.Fatal("x+1=x should be unsat")
	}
}

func TestCommutativityValid(t *testing.T) {
	// Validity of x+y = y+x: negation must be unsat. Build with
	// simplification off so the blaster does the work.
	b := smt.NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 13), b.Var("y", 13)
	f := b.Not(b.Eq(b.Add(x, y), b.Add(y, x)))
	if st, _ := solveTerm(f); st != sat.Unsat {
		t.Fatal("commutativity of + must be valid")
	}
}

func TestDeMorganValid(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 8), b.Var("y", 8)
	lhs := b.BVNot(b.BVAnd(x, y))
	rhs := b.BVOr(b.BVNot(x), b.BVNot(y))
	if st, _ := solveTerm(b.Not(b.Eq(lhs, rhs))); st != sat.Unsat {
		t.Fatal("De Morgan must be valid")
	}
}

func TestMulDistributesValid(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x, y, z := b.Var("x", 6), b.Var("y", 6), b.Var("z", 6)
	lhs := b.Mul(x, b.Add(y, z))
	rhs := b.Add(b.Mul(x, y), b.Mul(x, z))
	if st, _ := solveTerm(b.Not(b.Eq(lhs, rhs))); st != sat.Unsat {
		t.Fatal("distributivity must be valid")
	}
}

func TestShlIsMulByTwo(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x := b.Var("x", 8)
	lhs := b.Shl(x, b.ConstUint(8, 1))
	rhs := b.Mul(x, b.ConstUint(8, 2))
	if st, _ := solveTerm(b.Not(b.Eq(lhs, rhs))); st != sat.Unsat {
		t.Fatal("x<<1 == x*2 must be valid")
	}
}

func TestDivisionIdentity(t *testing.T) {
	// (x udiv y) * y + (x urem y) = x for y != 0.
	b := smt.NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 7), b.Var("y", 7)
	id := b.Eq(b.Add(b.Mul(b.Udiv(x, y), y), b.Urem(x, y)), x)
	pre := b.Not(b.Eq(y, b.ConstUint(7, 0)))
	if st, _ := solveTerm(b.And(pre, b.Not(id))); st != sat.Unsat {
		t.Fatal("division identity must hold for nonzero divisors")
	}
}

func TestZeroDivisorConventions(t *testing.T) {
	// udiv by zero = all ones; urem by zero = dividend.
	b := smt.NewBuilder()
	b.Simplify = false
	x := b.Var("x", 8)
	zero := b.ConstUint(8, 0)
	ones := b.ConstUint(8, 0xFF)
	if st, _ := solveTerm(b.Not(b.Eq(b.Udiv(x, zero), ones))); st != sat.Unsat {
		t.Fatal("x udiv 0 must be all-ones")
	}
	if st, _ := solveTerm(b.Not(b.Eq(b.Urem(x, zero), x))); st != sat.Unsat {
		t.Fatal("x urem 0 must be x")
	}
	// sdiv/srem zero conventions must match the bv package.
	if st, _ := solveTerm(b.Not(b.Eq(b.Srem(x, zero), x))); st != sat.Unsat {
		t.Fatal("x srem 0 must be x")
	}
}

func TestSignedComparison(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x := b.Var("x", 8)
	// x <s 0 and x >u 127 are equivalent at width 8.
	lhs := b.Slt(x, b.ConstUint(8, 0))
	rhs := b.Ult(b.ConstUint(8, 127), x)
	if st, _ := solveTerm(b.Not(b.Eq(lhs, rhs))); st != sat.Unsat {
		t.Fatal("signed-negative iff unsigned >127 at width 8")
	}
}

func TestWideningOps(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x := b.Var("x", 4)
	// sext(x) - zext(x) is 0 when x >= 0s.
	pre := b.Sle(b.ConstUint(4, 0), x)
	diff := b.Sub(b.SExt(x, 8), b.ZExt(x, 8))
	f := b.And(pre, b.Not(b.Eq(diff, b.ConstUint(8, 0))))
	if st, _ := solveTerm(f); st != sat.Unsat {
		t.Fatal("sext == zext for non-negative values")
	}
	// trunc(concat(y, x)) == x.
	y := b.Var("y", 4)
	f2 := b.Not(b.Eq(b.Extract(b.Concat(y, x), 3, 0), x))
	if st, _ := solveTerm(f2); st != sat.Unsat {
		t.Fatal("low extract of concat must be the low part")
	}
}

func TestIteBlasting(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	p := b.BoolVar("p")
	x := b.Var("x", 8)
	// ite(p, x, x) == x
	if st, _ := solveTerm(b.Not(b.Eq(b.Ite(p, x, x), x))); st != sat.Unsat {
		t.Fatal("ite with equal branches must equal the branch")
	}
	// ite(p, 1, 0) == zext(p as bv)? Validity: ite(p,1,0) != 0 <-> p.
	f := b.Not(b.Eq(b.Eq(b.Ite(p, b.ConstUint(8, 1), b.ConstUint(8, 0)), b.ConstUint(8, 0)), b.Not(p)))
	if st, _ := solveTerm(f); st != sat.Unsat {
		t.Fatal("ite/eq interaction wrong")
	}
}

// TestDifferentialRandomTerms generates random term DAGs, solves
// "term == constant-from-eval" and cross-checks: the formula where the
// equality uses the evaluated value must be SAT, and the model must
// evaluate consistently.
func TestDifferentialRandomTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 150; iter++ {
		width := []int{1, 3, 4, 8}[rng.Intn(4)]
		checkBVAgainstEval(t, rng, width, 1)
	}
}

// checkBVAgainstEval builds a random BV term of the given width over
// three variables, fixes the variables to random values, and requires
// the blasted term to take exactly its smt.Eval value: asserting that
// value must be SAT, and asserting the value plus off (not a multiple
// of 2^width) UNSAT.
func checkBVAgainstEval(t *testing.T, rng *rand.Rand, width int, off uint64) {
	t.Helper()
	b := smt.NewBuilder()
	b.Simplify = false
	vars := []*smt.Term{b.Var("a", width), b.Var("b", width), b.Var("c", width)}
	term := randomTerm(rng, b, vars, width, 4)

	m := smt.NewModel()
	conj := []*smt.Term{nil}
	for _, v := range vars {
		val := bv.New(width, rng.Uint64())
		m.BVs[v.Name] = val
		conj = append(conj, b.Eq(v, b.Const(val)))
	}
	want := smt.Eval(term, m)

	conj[0] = b.Eq(term, b.Const(want.V))
	if st, _ := solveTerm(b.And(conj...)); st != sat.Sat {
		t.Fatalf("blasted semantics disagree with Eval for %s (inputs %v, want %s)", term, m.BVs, want)
	}
	other := want.V.Add(bv.New(width, off))
	conj[0] = b.Eq(term, b.Const(other))
	if st, _ := solveTerm(b.And(conj...)); st != sat.Unsat {
		t.Fatalf("term %s solved to %s besides %s (inputs %v)", term, other, want, m.BVs)
	}
}

// FuzzBitblast drives checkBVAgainstEval and checkBoolAgainstEval from
// the fuzz input: the seed of the term generator and the input values,
// a width from 1 to 8, the offset of the value that must be UNSAT, and
// whether the term is a BitVec or a Bool.
func FuzzBitblast(f *testing.F) {
	f.Add(int64(1), uint8(7), uint64(1), false)
	f.Add(int64(2), uint8(3), uint64(5), true)
	f.Add(int64(42), uint8(0), uint64(1), false)
	f.Fuzz(func(t *testing.T, seed int64, w uint8, off uint64, boolean bool) {
		width := 1 + int(w%8)
		rng := rand.New(rand.NewSource(seed))
		if boolean {
			checkBoolAgainstEval(t, rng, width)
			return
		}
		if off%(1<<uint(width)) == 0 {
			off = 1
		}
		checkBVAgainstEval(t, rng, width, off)
	})
}

// randomTerm builds a random BV term of the given width and depth.
func randomTerm(rng *rand.Rand, b *smt.Builder, vars []*smt.Term, width, depth int) *smt.Term {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.Const(bv.New(width, rng.Uint64()))
	}
	sub := func() *smt.Term { return randomTerm(rng, b, vars, width, depth-1) }
	switch rng.Intn(16) {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		return b.Mul(sub(), sub())
	case 3:
		return b.BVAnd(sub(), sub())
	case 4:
		return b.BVOr(sub(), sub())
	case 5:
		return b.BVXor(sub(), sub())
	case 6:
		return b.BVNot(sub())
	case 7:
		return b.Neg(sub())
	case 8:
		return b.Shl(sub(), sub())
	case 9:
		return b.Lshr(sub(), sub())
	case 10:
		return b.Ashr(sub(), sub())
	case 11:
		return b.Udiv(sub(), sub())
	case 12:
		return b.Urem(sub(), sub())
	case 13:
		return b.Sdiv(sub(), sub())
	case 14:
		return b.Srem(sub(), sub())
	default:
		return b.Ite(b.Ult(sub(), sub()), sub(), sub())
	}
}

// TestDifferentialBoolTerms does the same for Boolean-sorted terms
// (comparisons and connectives).
func TestDifferentialBoolTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		width := []int{1, 4, 8}[rng.Intn(3)]
		checkBoolAgainstEval(t, rng, width)
	}
}

// checkBoolAgainstEval builds a random comparison or connective over
// BV terms of the given width, fixes the two variables to random values,
// and requires SAT at the smt.Eval value and UNSAT at its negation.
func checkBoolAgainstEval(t *testing.T, rng *rand.Rand, width int) {
	t.Helper()
	b := smt.NewBuilder()
	b.Simplify = false
	vars := []*smt.Term{b.Var("a", width), b.Var("b", width)}
	mk := func() *smt.Term { return randomTerm(rng, b, vars, width, 3) }
	var f *smt.Term
	switch rng.Intn(6) {
	case 0:
		f = b.Ult(mk(), mk())
	case 1:
		f = b.Slt(mk(), mk())
	case 2:
		f = b.Ule(mk(), mk())
	case 3:
		f = b.Sle(mk(), mk())
	case 4:
		f = b.Eq(mk(), mk())
	default:
		f = b.And(b.Ult(mk(), mk()), b.Not(b.Eq(mk(), mk())))
	}
	m := smt.NewModel()
	conj := []*smt.Term{}
	for _, v := range vars {
		val := bv.New(width, rng.Uint64())
		m.BVs[v.Name] = val
		conj = append(conj, b.Eq(v, b.Const(val)))
	}
	want := smt.Eval(f, m).B
	goal := f
	if !want {
		goal = b.Not(f)
	}
	conj = append(conj, goal)
	if st, _ := solveTerm(b.And(conj...)); st != sat.Sat {
		t.Fatalf("bool term disagrees with Eval: %s (want %v, inputs %v)", f, want, m.BVs)
	}
	conj[len(conj)-1] = b.Not(goal)
	if st, _ := solveTerm(b.And(conj...)); st != sat.Unsat {
		t.Fatalf("bool term has two values: %s", f)
	}
}

func TestModelExtraction(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", 16)
	p := b.BoolVar("p")
	f := b.And(b.Eq(x, b.ConstUint(16, 0xBEEF)), p)
	st, bl := solveTerm(f)
	if st != sat.Sat {
		t.Fatal("should be sat")
	}
	if got := bl.BVVarValue("x", 16, valueOf(bl)); got.Uint64() != 0xBEEF {
		t.Fatalf("x = %s", got)
	}
	if !bl.BoolVarValue("p", valueOf(bl)) {
		t.Fatal("p should be true")
	}
	// Unknown variables read as defaults.
	if !bl.BVVarValue("nope", 8, valueOf(bl)).IsZero() || bl.BoolVarValue("nope", valueOf(bl)) {
		t.Fatal("unknown variables should read zero/false")
	}
}

func TestWidth1Ops(t *testing.T) {
	// Width-1 vectors exercise every boundary in the circuits.
	b := smt.NewBuilder()
	b.Simplify = false
	x := b.Var("x", 1)
	// x * x == x at width 1.
	if st, _ := solveTerm(b.Not(b.Eq(b.Mul(x, x), x))); st != sat.Unsat {
		t.Fatal("x*x == x at width 1")
	}
	// -x == x at width 1.
	if st, _ := solveTerm(b.Not(b.Eq(b.Neg(x), x))); st != sat.Unsat {
		t.Fatal("-x == x at width 1")
	}
	// x << 1 == 0 (shift amount >= width).
	if st, _ := solveTerm(b.Not(b.Eq(b.Shl(x, b.ConstUint(1, 1)), b.ConstUint(1, 0)))); st != sat.Unsat {
		t.Fatal("x << 1 must be 0 at width 1")
	}
	// ashr by 1 at width 1: fills with the sign bit, so result == x.
	if st, _ := solveTerm(b.Not(b.Eq(b.Ashr(x, b.ConstUint(1, 1)), x))); st != sat.Unsat {
		t.Fatal("x ashr 1 must be x at width 1")
	}
}

func TestGateCountGrows(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 16), b.Var("y", 16)
	core := sat.New()
	bl := New(core)
	bl.Assert(b.Eq(b.Mul(x, y), b.ConstUint(16, 12345)))
	if bl.Gates == 0 {
		t.Fatal("multiplier should introduce gates")
	}
}

func BenchmarkBlastAndSolveMulEq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := smt.NewBuilder()
		x, y := bld.Var("x", 12), bld.Var("y", 12)
		f := bld.Eq(bld.Mul(x, y), bld.ConstUint(12, 1001))
		st, _ := solveTerm(f)
		if st != sat.Sat {
			b.Fatal("expected sat")
		}
	}
}

// TestUniqueTable builds each kind of gate a second time with its inputs
// reordered, duplicated or negated: the second build must add no gate
// and return the first gate's literal, or its negation where the
// inputs' negations move to the output.
func TestUniqueTable(t *testing.T) {
	bl := New(sat.New())
	x, y, z, s := bl.fresh(), bl.fresh(), bl.fresh(), bl.fresh()
	for _, tc := range []struct {
		name         string
		first, again func() sat.Lit
		negated      bool
	}{
		{"and", func() sat.Lit { return bl.mkAnd(x, y.Not(), z) },
			func() sat.Lit { return bl.mkAnd(z, x, y.Not(), x) }, false},
		{"and-true", func() sat.Lit { return bl.mkAnd(x, y) },
			func() sat.Lit { return bl.mkAnd(y, bl.lTrue, x, y) }, false},
		{"or", func() sat.Lit { return bl.mkOr(x, y) },
			func() sat.Lit { return bl.mkAnd(y.Not(), x.Not()) }, true},
		{"xor", func() sat.Lit { return bl.mkXor(x, y) },
			func() sat.Lit { return bl.mkXor(y, x) }, false},
		{"xor-first-negated", func() sat.Lit { return bl.mkXor(x, y) },
			func() sat.Lit { return bl.mkXor(x.Not(), y) }, true},
		{"xor-second-negated", func() sat.Lit { return bl.mkXor(x, y) },
			func() sat.Lit { return bl.mkXor(y.Not(), x) }, true},
		{"xor-both-negated", func() sat.Lit { return bl.mkXor(x, y) },
			func() sat.Lit { return bl.mkXor(y.Not(), x.Not()) }, false},
		{"ite-negated-condition", func() sat.Lit { return bl.mkIte(s, x, y) },
			func() sat.Lit { return bl.mkIte(s.Not(), y, x) }, false},
		{"ite-negated-arms", func() sat.Lit { return bl.mkIte(s, x, y) },
			func() sat.Lit { return bl.mkIte(s, x.Not(), y.Not()) }, true},
		{"ite-negated-all", func() sat.Lit { return bl.mkIte(s, x, y) },
			func() sat.Lit { return bl.mkIte(s.Not(), y.Not(), x.Not()) }, true},
	} {
		g := tc.first()
		before := bl.Gates
		again := tc.again()
		want := g
		if tc.negated {
			want = g.Not()
		}
		if again != want || bl.Gates != before {
			t.Errorf("%s: built %v with %d new gates, want %v with none", tc.name, again, bl.Gates-before, want)
		}
	}
	if bl.mkAnd(x, y, x.Not()) != bl.lFalse {
		t.Error("and of a complementary pair did not fold to false")
	}
	if n := testing.AllocsPerRun(100, func() {
		bl.mkAnd(z, x, y.Not())
		bl.mkOr(y, x)
		bl.mkXor(y.Not(), x)
		bl.mkIte(s.Not(), y, x)
	}); n != 0 {
		t.Errorf("unique-table hits allocated %v times per run, want 0", n)
	}
}

// TestSharedProductCheck lowers the i8 check zext(x)·zext(y) =
// zext(x·y) at i16. The narrow product is the low half of the wide one,
// gate for gate, so it must add no gate of its own, and its eight
// low-bit comparisons must fold to true.
func TestSharedProductCheck(t *testing.T) {
	b := smt.NewBuilder()
	b.Simplify = false
	x, y := b.Var("x", 8), b.Var("y", 8)
	wide := b.Mul(b.ZExt(x, 16), b.ZExt(y, 16))
	narrow := b.ZExt(b.Mul(x, y), 16)
	gates := func(terms ...*smt.Term) (*Blaster, int) {
		bl := New(sat.New())
		for _, term := range terms {
			if term.IsBool() {
				bl.Lit(term)
			} else {
				bl.Bits(term)
			}
		}
		return bl, bl.Gates
	}
	_, wideGates := gates(wide)
	_, narrowGates := gates(narrow)
	bl, checkGates := gates(b.Eq(wide, narrow))
	t.Logf("wide product %d gates, narrow %d, check %d", wideGates, narrowGates, checkGates)
	if checkGates >= wideGates+narrowGates {
		t.Errorf("check lowered to %d gates, want fewer than the two products' %d", checkGates, wideGates+narrowGates)
	}
	for i := 0; i < 8; i++ {
		if l := bl.Lit(b.Eq(b.Extract(wide, i, i), b.Extract(narrow, i, i))); l != bl.lTrue {
			t.Errorf("bit %d of the two products compares as %v, want true", i, l)
		}
	}
}
