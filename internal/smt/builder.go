package smt

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"alive/internal/bv"
)

// Builder creates hash-consed, simplified terms. All terms combined in one
// expression must come from the same Builder. Builders are not safe for
// concurrent use.
type Builder struct {
	cache  map[key]*Term
	nextID uint64
	// Simplify controls constructor-time simplification (constant folding
	// and algebraic identities). On by default; the ablation benchmark
	// turns it off to measure its effect on CNF size and solve time.
	Simplify bool
}

// NewBuilder returns an empty Builder with simplification enabled.
func NewBuilder() *Builder {
	return &Builder{cache: map[key]*Term{}, Simplify: true}
}

// key is a term's structure: two terms of one Builder are the same term
// exactly when their keys are equal. Everything a term is made of fits
// in the inline fields except a constant wider than 64 bits, a
// variable's name and the arguments past the third, which go to rest:
// the constant as its little-endian words, each argument as its ID in
// eight bytes. A term has at most one of the three, so they never share
// rest; argument IDs start at 1, so a zero in args means "no argument".
type key struct {
	kind   Kind
	bval   bool
	width  int
	hi, lo int
	val    uint64
	args   [3]uint64
	rest   string
}

// intern returns the term with n's own fields and the arguments args,
// making it when the Builder has none yet. n carries no arguments; a new
// term gets a copy of args, so a hit allocates nothing (callers' argument
// lists stay on their stacks). IDs count the terms made, in order.
func (b *Builder) intern(n Term, args ...*Term) *Term {
	k := key{kind: n.Kind, bval: n.BVal, width: n.Width, hi: n.Hi, lo: n.Lo}
	var rest strings.Builder
	switch n.Kind {
	case KBVConst:
		if n.Width <= 64 {
			k.val = n.Val.Uint64()
		} else {
			words := (n.Width + 63) / 64
			rest.Grow(8 * words)
			for i := 0; i < words; i++ {
				writeWord(&rest, n.Val.Word(i))
			}
		}
	case KVar:
		k.rest = n.Name
	}
	for i, a := range args {
		if i < len(k.args) {
			k.args[i] = a.id
			continue
		}
		if i == len(k.args) {
			rest.Grow(8 * (len(args) - i))
		}
		writeWord(&rest, a.id)
	}
	if rest.Len() > 0 {
		k.rest = rest.String()
	}
	if t, ok := b.cache[k]; ok {
		return t
	}
	t := new(Term)
	*t = n
	if len(args) > 0 {
		t.Args = slices.Clone(args)
	}
	b.nextID++
	t.id = b.nextID
	b.cache[k] = t
	return t
}

// writeWord appends w to sb as eight little-endian bytes.
func writeWord(sb *strings.Builder, w uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w)
	sb.Write(buf[:])
}

// Bool returns the Bool constant v.
func (b *Builder) Bool(v bool) *Term {
	return b.intern(Term{Kind: KBoolConst, BVal: v})
}

// True returns the constant true.
func (b *Builder) True() *Term { return b.Bool(true) }

// False returns the constant false.
func (b *Builder) False() *Term { return b.Bool(false) }

// Const returns the BitVec constant v.
func (b *Builder) Const(v bv.Vec) *Term {
	return b.intern(Term{Kind: KBVConst, Width: v.Width(), Val: v})
}

// ConstUint returns a BitVec constant of the given width holding v.
func (b *Builder) ConstUint(width int, v uint64) *Term {
	return b.Const(bv.New(width, v))
}

// ConstInt returns a BitVec constant of the given width holding the
// two's-complement encoding of v.
func (b *Builder) ConstInt(width int, v int64) *Term {
	return b.Const(bv.NewInt(width, v))
}

// Var returns the BitVec variable of the given name and width.
func (b *Builder) Var(name string, width int) *Term {
	if width <= 0 {
		panic("smt: Var needs positive width; use BoolVar")
	}
	return b.intern(Term{Kind: KVar, Width: width, Name: name})
}

// BoolVar returns the Bool variable of the given name.
func (b *Builder) BoolVar(name string) *Term {
	return b.intern(Term{Kind: KVar, Name: name})
}

func mustBool(t *Term) {
	if !t.IsBool() {
		panic("smt: expected Bool term, got " + t.String())
	}
}

func mustBV(t *Term) {
	if t.IsBool() {
		panic("smt: expected BitVec term, got " + t.String())
	}
}

func mustSameWidth(x, y *Term) {
	if x.Width != y.Width {
		panic(fmt.Sprintf("smt: width mismatch %d vs %d (%s vs %s)", x.Width, y.Width, x, y))
	}
}

// Not returns the negation of x.
func (b *Builder) Not(x *Term) *Term {
	mustBool(x)
	if b.Simplify {
		switch x.Kind {
		case KBoolConst:
			return b.Bool(!x.BVal)
		case KNot:
			return x.Args[0]
		}
	}
	return b.intern(Term{Kind: KNot}, x)
}

// And returns the conjunction of xs (true when empty).
func (b *Builder) And(xs ...*Term) *Term {
	var buf [8]*Term
	flat := buf[:0]
	seen := map[uint64]bool{}
	for _, x := range xs {
		mustBool(x)
		if b.Simplify {
			if x.IsFalse() {
				return b.False()
			}
			if x.IsTrue() || seen[x.id] {
				continue
			}
			if x.Kind == KAnd {
				for _, a := range x.Args {
					if a.IsFalse() {
						return b.False()
					}
					if !seen[a.id] {
						seen[a.id] = true
						flat = append(flat, a)
					}
				}
				continue
			}
		}
		seen[x.id] = true
		flat = append(flat, x)
	}
	if b.Simplify {
		// x & !x = false
		for _, x := range flat {
			if x.Kind == KNot && seen[x.Args[0].id] {
				return b.False()
			}
		}
	}
	switch len(flat) {
	case 0:
		return b.True()
	case 1:
		return flat[0]
	}
	sortByID(flat)
	return b.intern(Term{Kind: KAnd}, flat...)
}

// Or returns the disjunction of xs (false when empty).
func (b *Builder) Or(xs ...*Term) *Term {
	var buf [8]*Term
	flat := buf[:0]
	seen := map[uint64]bool{}
	for _, x := range xs {
		mustBool(x)
		if b.Simplify {
			if x.IsTrue() {
				return b.True()
			}
			if x.IsFalse() || seen[x.id] {
				continue
			}
			if x.Kind == KOr {
				for _, a := range x.Args {
					if a.IsTrue() {
						return b.True()
					}
					if !seen[a.id] {
						seen[a.id] = true
						flat = append(flat, a)
					}
				}
				continue
			}
		}
		seen[x.id] = true
		flat = append(flat, x)
	}
	if b.Simplify {
		for _, x := range flat {
			if x.Kind == KNot && seen[x.Args[0].id] {
				return b.True()
			}
		}
	}
	switch len(flat) {
	case 0:
		return b.False()
	case 1:
		return flat[0]
	}
	sortByID(flat)
	return b.intern(Term{Kind: KOr}, flat...)
}

// sortByID orders ts by ID. Equal IDs are the same term, so the order
// does not depend on the sort's stability.
func sortByID(ts []*Term) {
	slices.SortFunc(ts, func(x, y *Term) int { return cmp.Compare(x.id, y.id) })
}

// Xor returns x ^ y over Bool.
func (b *Builder) Xor(x, y *Term) *Term {
	mustBool(x)
	mustBool(y)
	if b.Simplify {
		switch {
		case x.IsConst() && y.IsConst():
			return b.Bool(x.BVal != y.BVal)
		case x.IsFalse():
			return y
		case y.IsFalse():
			return x
		case x.IsTrue():
			return b.Not(y)
		case y.IsTrue():
			return b.Not(x)
		case x == y:
			return b.False()
		}
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.intern(Term{Kind: KXor}, x, y)
}

// Implies returns x => y.
func (b *Builder) Implies(x, y *Term) *Term {
	mustBool(x)
	mustBool(y)
	if b.Simplify {
		switch {
		case x.IsFalse() || y.IsTrue():
			return b.True()
		case x.IsTrue():
			return y
		case y.IsFalse():
			return b.Not(x)
		case x == y:
			return b.True()
		}
	}
	return b.intern(Term{Kind: KImplies}, x, y)
}

// Eq returns the polymorphic equality x = y (both Bool or both BitVec of
// equal width).
func (b *Builder) Eq(x, y *Term) *Term {
	if x.IsBool() != y.IsBool() {
		panic("smt: Eq sort mismatch")
	}
	if !x.IsBool() {
		mustSameWidth(x, y)
	}
	if b.Simplify {
		if x == y {
			return b.True()
		}
		if x.Kind == KBVConst && y.Kind == KBVConst {
			return b.Bool(x.Val.Eq(y.Val))
		}
		if x.Kind == KBoolConst && y.Kind == KBoolConst {
			return b.Bool(x.BVal == y.BVal)
		}
		if x.IsBool() {
			switch {
			case x.IsTrue():
				return y
			case y.IsTrue():
				return x
			case x.IsFalse():
				return b.Not(y)
			case y.IsFalse():
				return b.Not(x)
			}
		}
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.intern(Term{Kind: KEq}, x, y)
}

// Ne returns the negation of Eq.
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// Ite returns if cond then x else y.
func (b *Builder) Ite(cond, x, y *Term) *Term {
	mustBool(cond)
	if x.IsBool() != y.IsBool() {
		panic("smt: Ite branch sort mismatch")
	}
	if !x.IsBool() {
		mustSameWidth(x, y)
	}
	if b.Simplify {
		switch {
		case cond.IsTrue():
			return x
		case cond.IsFalse():
			return y
		case x == y:
			return x
		}
		if x.IsBool() {
			switch {
			case x.IsTrue() && y.IsFalse():
				return cond
			case x.IsFalse() && y.IsTrue():
				return b.Not(cond)
			case x.IsTrue():
				return b.Or(cond, y)
			case x.IsFalse():
				return b.And(b.Not(cond), y)
			case y.IsTrue():
				return b.Or(b.Not(cond), x)
			case y.IsFalse():
				return b.And(cond, x)
			}
		}
		if cond.Kind == KNot {
			return b.Ite(cond.Args[0], y, x)
		}
	}
	w := x.Width
	return b.intern(Term{Kind: KIte, Width: w}, cond, x, y)
}

// binBV builds a binary BitVec operation with constant folding.
func (b *Builder) binBV(kind Kind, x, y *Term, fold func(a, c bv.Vec) bv.Vec) *Term {
	mustBV(x)
	mustBV(y)
	mustSameWidth(x, y)
	if b.Simplify && x.Kind == KBVConst && y.Kind == KBVConst {
		return b.Const(fold(x.Val, y.Val))
	}
	return b.intern(Term{Kind: kind, Width: x.Width}, x, y)
}

// maxACLeaves bounds the leaves acBuild flattens into one application.
// Flattening copies a shared operand once per use, so x+x over a sum of
// n leaves has 2n, and k such doublings would build 2^k; past the bound
// the two operands stay whole. No corpus transform flattens more than
// three leaves.
const maxACLeaves = 64

// flattenAC appends the leaves of an associative-commutative operator
// tree to out. It reports false, with part of them appended, once out
// would hold more than maxACLeaves.
func flattenAC(kind Kind, t *Term, out []*Term) ([]*Term, bool) {
	if t.Kind != kind {
		if len(out) == maxACLeaves {
			return out, false
		}
		return append(out, t), true
	}
	for _, a := range t.Args {
		var ok bool
		if out, ok = flattenAC(kind, a, out); !ok {
			return out, false
		}
	}
	return out, true
}

// acBuild normalizes an associative-commutative operator application:
// nested applications are flattened, constants folded together,
// idempotence and cancellation applied, and the result rebuilt in a
// canonical sorted left-combed shape. This makes reassociated expressions
// structurally equal — the role Z3's arithmetic rewriter plays for the
// original Alive (e.g. (x*C1)*C2 and x*(C1*C2) become the same term even
// when C1 and C2 are symbolic).
func (b *Builder) acBuild(kind Kind, x, y *Term, fold func(a, c bv.Vec) bv.Vec) *Term {
	mustBV(x)
	mustBV(y)
	mustSameWidth(x, y)
	w := x.Width
	if !b.Simplify {
		if x.id > y.id {
			x, y = y, x
		}
		return b.intern(Term{Kind: kind, Width: w}, x, y)
	}

	var buf [8]*Term
	leaves, ok := flattenAC(kind, x, buf[:0])
	if ok {
		leaves, ok = flattenAC(kind, y, leaves)
	}
	if !ok {
		leaves = append(leaves[:0], x, y)
	}

	// Fold constants together.
	var cval bv.Vec
	hasC := false
	nonConst := leaves[:0]
	for _, l := range leaves {
		if l.Kind == KBVConst {
			if !hasC {
				cval, hasC = l.Val, true
			} else {
				cval = fold(cval, l.Val)
			}
			continue
		}
		nonConst = append(nonConst, l)
	}
	leaves = nonConst

	// Idempotence and cancellation.
	switch kind {
	case KBVAnd, KBVOr:
		seen := map[uint64]bool{}
		dedup := leaves[:0]
		for _, l := range leaves {
			if !seen[l.id] {
				seen[l.id] = true
				dedup = append(dedup, l)
			}
		}
		leaves = dedup
		// x op ~x is absorbing: 0 for and, all-ones for or.
		for _, l := range leaves {
			if l.Kind == KBVNot && seen[l.Args[0].id] {
				if kind == KBVAnd {
					return b.ConstUint(w, 0)
				}
				return b.Const(bv.Ones(w))
			}
		}
	case KBVXor:
		// Pairs cancel: keep each leaf iff it occurs an odd number of
		// times.
		count := map[uint64]int{}
		for _, l := range leaves {
			count[l.id]++
		}
		odd := leaves[:0]
		kept := map[uint64]bool{}
		for _, l := range leaves {
			if count[l.id]%2 == 1 && !kept[l.id] {
				kept[l.id] = true
				odd = append(odd, l)
			}
		}
		leaves = odd
	}

	// Absorbing and identity constants.
	if hasC {
		switch kind {
		case KBVMul:
			if cval.IsZero() {
				return b.ConstUint(w, 0)
			}
			hasC = !cval.IsOne()
		case KBVAnd:
			if cval.IsZero() {
				return b.ConstUint(w, 0)
			}
			hasC = !cval.IsOnes()
		case KBVOr:
			if cval.IsOnes() {
				return b.Const(bv.Ones(w))
			}
			hasC = !cval.IsZero()
		case KBVAdd, KBVXor:
			hasC = !cval.IsZero()
		}
	}

	// x ^ all-ones is a complement.
	if kind == KBVXor && hasC && cval.IsOnes() && len(leaves) == 1 {
		return b.BVNot(leaves[0])
	}

	sortByID(leaves)
	if hasC {
		leaves = append(leaves, b.Const(cval))
	}
	switch len(leaves) {
	case 0:
		// Everything cancelled: the identity element.
		switch kind {
		case KBVMul:
			return b.ConstUint(w, 1)
		case KBVAnd:
			return b.Const(bv.Ones(w))
		default:
			return b.ConstUint(w, 0)
		}
	case 1:
		return leaves[0]
	}
	acc := leaves[0]
	for _, l := range leaves[1:] {
		acc = b.intern(Term{Kind: kind, Width: w}, acc, l)
	}
	return acc
}

// Add returns x + y.
func (b *Builder) Add(x, y *Term) *Term { return b.acBuild(KBVAdd, x, y, bv.Vec.Add) }

// Mul returns x * y.
func (b *Builder) Mul(x, y *Term) *Term { return b.acBuild(KBVMul, x, y, bv.Vec.Mul) }

// BVAnd returns x & y.
func (b *Builder) BVAnd(x, y *Term) *Term { return b.acBuild(KBVAnd, x, y, bv.Vec.And) }

// BVOr returns x | y.
func (b *Builder) BVOr(x, y *Term) *Term { return b.acBuild(KBVOr, x, y, bv.Vec.Or) }

// BVXor returns x ^ y.
func (b *Builder) BVXor(x, y *Term) *Term { return b.acBuild(KBVXor, x, y, bv.Vec.Xor) }

// Sub returns x - y. Subtraction of a constant canonicalizes to addition
// of its negation so constant chains mixing add and sub fold together.
func (b *Builder) Sub(x, y *Term) *Term {
	if b.Simplify {
		if y.Kind == KBVConst && y.Val.IsZero() {
			return x
		}
		if x == y {
			return b.ConstUint(x.Width, 0)
		}
		if y.Kind == KBVConst && x.Kind != KBVConst {
			return b.Add(x, b.Const(y.Val.Neg()))
		}
	}
	return b.binBV(KBVSub, x, y, bv.Vec.Sub)
}

// Neg returns -x.
func (b *Builder) Neg(x *Term) *Term {
	mustBV(x)
	if b.Simplify {
		if x.Kind == KBVConst {
			return b.Const(x.Val.Neg())
		}
		if x.Kind == KBVNeg {
			return x.Args[0]
		}
	}
	return b.intern(Term{Kind: KBVNeg, Width: x.Width}, x)
}

// BVNot returns the bitwise complement ~x.
func (b *Builder) BVNot(x *Term) *Term {
	mustBV(x)
	if b.Simplify {
		if x.Kind == KBVConst {
			return b.Const(x.Val.Not())
		}
		if x.Kind == KBVNot {
			return x.Args[0]
		}
	}
	return b.intern(Term{Kind: KBVNot, Width: x.Width}, x)
}

// Udiv returns x /u y (SMT-LIB zero-divisor convention).
func (b *Builder) Udiv(x, y *Term) *Term {
	if b.Simplify && y.Kind == KBVConst && y.Val.IsOne() {
		return x
	}
	return b.binBV(KBVUdiv, x, y, bv.Vec.Udiv)
}

// Urem returns x %u y.
func (b *Builder) Urem(x, y *Term) *Term {
	if b.Simplify && y.Kind == KBVConst && y.Val.IsOne() {
		return b.ConstUint(x.Width, 0)
	}
	return b.binBV(KBVUrem, x, y, bv.Vec.Urem)
}

// Sdiv returns x /s y.
func (b *Builder) Sdiv(x, y *Term) *Term {
	return b.binBV(KBVSdiv, x, y, bv.Vec.Sdiv)
}

// Srem returns x %s y.
func (b *Builder) Srem(x, y *Term) *Term {
	return b.binBV(KBVSrem, x, y, bv.Vec.Srem)
}

// overShift reports whether y is a constant shift amount >= the operand
// width, where bv semantics (matching bit-blasting and Eval) fill with
// zero or the sign bit.
func overShift(y *Term) bool {
	return y.Kind == KBVConst && !y.Val.Ult(bv.New(y.Width, uint64(y.Width)))
}

// Shl returns x << y. A constant amount >= width folds to zero, the
// fill semantics used by Eval and the bit-blaster.
func (b *Builder) Shl(x, y *Term) *Term {
	if b.Simplify && y.Kind == KBVConst {
		if y.Val.IsZero() {
			return x
		}
		if overShift(y) {
			return b.ConstUint(x.Width, 0)
		}
	}
	return b.binBV(KBVShl, x, y, bv.Vec.Shl)
}

// Lshr returns x >>u y. A constant amount >= width folds to zero.
func (b *Builder) Lshr(x, y *Term) *Term {
	if b.Simplify && y.Kind == KBVConst {
		if y.Val.IsZero() {
			return x
		}
		if overShift(y) {
			return b.ConstUint(x.Width, 0)
		}
	}
	return b.binBV(KBVLshr, x, y, bv.Vec.Lshr)
}

// Ashr returns x >>s y. A constant amount >= width fills every bit with
// the sign, i.e. the same result as shifting by width-1.
func (b *Builder) Ashr(x, y *Term) *Term {
	if b.Simplify && y.Kind == KBVConst {
		if y.Val.IsZero() {
			return x
		}
		if overShift(y) {
			return b.Ashr(x, b.ConstUint(x.Width, uint64(x.Width-1)))
		}
	}
	return b.binBV(KBVAshr, x, y, bv.Vec.Ashr)
}

func (b *Builder) rel(kind Kind, x, y *Term, fold func(a, c bv.Vec) bool) *Term {
	mustBV(x)
	mustBV(y)
	mustSameWidth(x, y)
	if b.Simplify {
		if x.Kind == KBVConst && y.Kind == KBVConst {
			return b.Bool(fold(x.Val, y.Val))
		}
		if x == y {
			// Reflexive: <= holds, < does not.
			return b.Bool(kind == KBVUle || kind == KBVSle)
		}
	}
	return b.intern(Term{Kind: kind}, x, y)
}

// Ult returns x <u y.
func (b *Builder) Ult(x, y *Term) *Term { return b.rel(KBVUlt, x, y, bv.Vec.Ult) }

// Ule returns x <=u y.
func (b *Builder) Ule(x, y *Term) *Term { return b.rel(KBVUle, x, y, bv.Vec.Ule) }

// Ugt returns x >u y.
func (b *Builder) Ugt(x, y *Term) *Term { return b.Ult(y, x) }

// Uge returns x >=u y.
func (b *Builder) Uge(x, y *Term) *Term { return b.Ule(y, x) }

// Slt returns x <s y.
func (b *Builder) Slt(x, y *Term) *Term { return b.rel(KBVSlt, x, y, bv.Vec.Slt) }

// Sle returns x <=s y.
func (b *Builder) Sle(x, y *Term) *Term { return b.rel(KBVSle, x, y, bv.Vec.Sle) }

// Sgt returns x >s y.
func (b *Builder) Sgt(x, y *Term) *Term { return b.Slt(y, x) }

// Sge returns x >=s y.
func (b *Builder) Sge(x, y *Term) *Term { return b.Sle(y, x) }

// ZExt returns x zero-extended to width (width >= x.Width; identity when
// equal).
func (b *Builder) ZExt(x *Term, width int) *Term {
	mustBV(x)
	if width < x.Width {
		panic("smt: ZExt to smaller width")
	}
	if width == x.Width {
		return x
	}
	if b.Simplify && x.Kind == KBVConst {
		return b.Const(x.Val.ZExt(width))
	}
	return b.intern(Term{Kind: KZExt, Width: width}, x)
}

// SExt returns x sign-extended to width.
func (b *Builder) SExt(x *Term, width int) *Term {
	mustBV(x)
	if width < x.Width {
		panic("smt: SExt to smaller width")
	}
	if width == x.Width {
		return x
	}
	if b.Simplify && x.Kind == KBVConst {
		return b.Const(x.Val.SExt(width))
	}
	return b.intern(Term{Kind: KSExt, Width: width}, x)
}

// Extract returns bits hi..lo of x.
func (b *Builder) Extract(x *Term, hi, lo int) *Term {
	mustBV(x)
	if lo < 0 || hi >= x.Width || hi < lo {
		panic(fmt.Sprintf("smt: extract [%d:%d] out of range for width %d", hi, lo, x.Width))
	}
	if lo == 0 && hi == x.Width-1 {
		return x
	}
	if b.Simplify && x.Kind == KBVConst {
		return b.Const(x.Val.Extract(hi, lo))
	}
	return b.intern(Term{Kind: KExtract, Width: hi - lo + 1, Hi: hi, Lo: lo}, x)
}

// Trunc returns the low width bits of x.
func (b *Builder) Trunc(x *Term, width int) *Term {
	return b.Extract(x, width-1, 0)
}

// Concat returns x:y with x in the high bits.
func (b *Builder) Concat(x, y *Term) *Term {
	mustBV(x)
	mustBV(y)
	if b.Simplify && x.Kind == KBVConst && y.Kind == KBVConst {
		return b.Const(x.Val.Concat(y.Val))
	}
	return b.intern(Term{Kind: KConcat, Width: x.Width + y.Width}, x, y)
}

// Substitute returns t with every variable named in sub replaced by the
// corresponding term. Replacement terms must have the same sort as the
// variables they replace.
func (b *Builder) Substitute(t *Term, sub map[string]*Term) *Term {
	cache := map[*Term]*Term{}
	var walk func(u *Term) *Term
	walk = func(u *Term) *Term {
		if r, ok := cache[u]; ok {
			return r
		}
		var r *Term
		switch u.Kind {
		case KVar:
			if s, ok := sub[u.Name]; ok {
				if s.Width != u.Width {
					panic("smt: substitution sort mismatch for " + u.Name)
				}
				r = s
			} else {
				r = u
			}
		case KBoolConst, KBVConst:
			r = u
		default:
			args := make([]*Term, len(u.Args))
			changed := false
			for i, a := range u.Args {
				args[i] = walk(a)
				changed = changed || args[i] != a
			}
			if !changed {
				r = u
			} else {
				r = b.rebuild(u, args)
			}
		}
		cache[u] = r
		return r
	}
	return walk(t)
}

// rebuild reconstructs a node with new arguments, going through the
// simplifying constructors.
func (b *Builder) rebuild(u *Term, args []*Term) *Term {
	switch u.Kind {
	case KNot:
		return b.Not(args[0])
	case KAnd:
		return b.And(args...)
	case KOr:
		return b.Or(args...)
	case KXor:
		return b.Xor(args[0], args[1])
	case KImplies:
		return b.Implies(args[0], args[1])
	case KEq:
		return b.Eq(args[0], args[1])
	case KIte:
		return b.Ite(args[0], args[1], args[2])
	case KBVNeg:
		return b.Neg(args[0])
	case KBVNot:
		return b.BVNot(args[0])
	case KBVAnd:
		return b.BVAnd(args[0], args[1])
	case KBVOr:
		return b.BVOr(args[0], args[1])
	case KBVXor:
		return b.BVXor(args[0], args[1])
	case KBVAdd:
		return b.Add(args[0], args[1])
	case KBVSub:
		return b.Sub(args[0], args[1])
	case KBVMul:
		return b.Mul(args[0], args[1])
	case KBVUdiv:
		return b.Udiv(args[0], args[1])
	case KBVUrem:
		return b.Urem(args[0], args[1])
	case KBVSdiv:
		return b.Sdiv(args[0], args[1])
	case KBVSrem:
		return b.Srem(args[0], args[1])
	case KBVShl:
		return b.Shl(args[0], args[1])
	case KBVLshr:
		return b.Lshr(args[0], args[1])
	case KBVAshr:
		return b.Ashr(args[0], args[1])
	case KBVUlt:
		return b.Ult(args[0], args[1])
	case KBVUle:
		return b.Ule(args[0], args[1])
	case KBVSlt:
		return b.Slt(args[0], args[1])
	case KBVSle:
		return b.Sle(args[0], args[1])
	case KZExt:
		return b.ZExt(args[0], u.Width)
	case KSExt:
		return b.SExt(args[0], u.Width)
	case KExtract:
		return b.Extract(args[0], u.Hi, u.Lo)
	case KConcat:
		return b.Concat(args[0], args[1])
	}
	panic(fmt.Sprintf("smt: rebuild of unexpected kind %v", u.Kind))
}
