// Package absint is an abstract interpreter over the hash-consed
// smt.Term DAG. For every term it computes a product of three domains:
//
//   - known bits: must-zero and must-one masks, as in LLVM's KnownBits;
//   - unsigned and signed intervals, inclusive endpoints, in the style
//     of LLVM's ConstantRange (unwrapped: Lo <= Hi in the respective
//     order);
//   - three-valued booleans for Bool-sorted terms.
//
// The DAG is acyclic, so a single memoized bottom-up sweep computes a
// sound fixpoint — no widening is needed. The domains cross-tighten
// after every transfer (reduce): agreeing high bits of the unsigned
// interval become known bits, a known sign bit clips the signed
// interval, and so on, until nothing changes.
//
// Soundness contract: for every model m and term t,
// Eval(t, m) ∈ Of(t) — the concrete value always lies inside the
// abstract one. An unconditional Analysis assumes nothing, so a Bool
// term it decides holds, or fails, under every assignment. A Refined
// analysis additionally assumes asserted formulas hold; its facts are
// valid only for models of those assertions, so they may refute them
// (Contradiction) but never stand in for them.
package absint

import (
	"alive/internal/bv"
)

// Bool3 is a three-valued boolean fact.
type Bool3 uint8

// Bool3 values. BTop means "unknown".
const (
	BTop Bool3 = iota
	BTrue
	BFalse
)

// String renders the fact.
func (b Bool3) String() string {
	switch b {
	case BTrue:
		return "true"
	case BFalse:
		return "false"
	}
	return "⊤"
}

// not negates a three-valued fact.
func (b Bool3) not() Bool3 {
	switch b {
	case BTrue:
		return BFalse
	case BFalse:
		return BTrue
	}
	return BTop
}

func fromBool(v bool) Bool3 {
	if v {
		return BTrue
	}
	return BFalse
}

// Value is the abstract value of one term: either a Bool fact
// (Width == 0) or the bit/interval product (Width > 0). The zero Value
// is not meaningful; use TopBV, TopBool, FromConst, or FromBool.
type Value struct {
	Width int   // 0 = Bool sort
	B     Bool3 // Bool sort only

	// BitVec sort only. Invariants after reduce: KZ&KO == 0,
	// ULo <=u UHi, SLo <=s SHi, unless bot.
	KZ, KO   bv.Vec // known-zero / known-one masks
	ULo, UHi bv.Vec // unsigned interval, inclusive
	SLo, SHi bv.Vec // signed interval, inclusive

	bot bool // contradiction: no concrete value possible
}

// TopBool is the unknown Bool fact.
func TopBool() Value { return Value{B: BTop} }

// FromBool abstracts a concrete boolean exactly.
func FromBool(v bool) Value { return Value{B: fromBool(v)} }

// TopBV is the unconstrained BitVec value of the given width.
func TopBV(w int) Value {
	return Value{
		Width: w,
		KZ:    bv.Zero(w), KO: bv.Zero(w),
		ULo: bv.Zero(w), UHi: bv.Ones(w),
		SLo: bv.MinSigned(w), SHi: bv.MaxSigned(w),
	}
}

// FromConst abstracts a concrete bitvector exactly.
func FromConst(v bv.Vec) Value {
	return Value{
		Width: v.Width(),
		KZ:    v.Not(), KO: v,
		ULo: v, UHi: v,
		SLo: v, SHi: v,
	}
}

// Bot returns the contradictory value of the given width (0 for Bool).
func Bot(w int) Value {
	if w == 0 {
		return Value{bot: true}
	}
	v := TopBV(w)
	v.bot = true
	return v
}

// IsBot reports whether no concrete value is possible.
func (v Value) IsBot() bool { return v.bot }

// IsBool reports whether v abstracts a Bool-sorted term.
func (v Value) IsBool() bool { return v.Width == 0 }

// Singleton returns the unique concrete value and true when the
// abstraction pins the term to exactly one bitvector.
func (v Value) Singleton() (bv.Vec, bool) {
	if v.bot || v.Width == 0 {
		return bv.Vec{}, false
	}
	if v.ULo.Eq(v.UHi) {
		return v.ULo, true
	}
	if v.KZ.Or(v.KO).IsOnes() {
		return v.KO, true
	}
	return bv.Vec{}, false
}

// ContainsBV reports whether the concrete value x lies inside v.
func (v Value) ContainsBV(x bv.Vec) bool {
	if v.bot || v.Width != x.Width() {
		return false
	}
	if !x.And(v.KZ).IsZero() || !x.And(v.KO).Eq(v.KO) {
		return false
	}
	if x.Ult(v.ULo) || v.UHi.Ult(x) {
		return false
	}
	if x.Slt(v.SLo) || v.SHi.Slt(x) {
		return false
	}
	return true
}

// ContainsBool reports whether the concrete boolean x lies inside v.
func (v Value) ContainsBool(x bool) bool {
	if v.bot || v.Width != 0 {
		return false
	}
	return v.B == BTop || v.B == fromBool(x)
}

func umin(a, b bv.Vec) bv.Vec {
	if a.Ult(b) {
		return a
	}
	return b
}

func umax(a, b bv.Vec) bv.Vec {
	if a.Ult(b) {
		return b
	}
	return a
}

func smin(a, b bv.Vec) bv.Vec {
	if a.Slt(b) {
		return a
	}
	return b
}

func smax(a, b bv.Vec) bv.Vec {
	if a.Slt(b) {
		return b
	}
	return a
}

// reduce cross-tightens the component domains until fixpoint and
// detects contradictions. Every rule is sound per se, and all are
// monotone shrinking, so iteration terminates quickly (masks and
// endpoints only ever tighten).
func (v Value) reduce() Value {
	if v.Width == 0 || v.bot {
		return v
	}
	w := v.Width
	//alive:bounded — monotone tightening of finite ranges/bit masks; converges within the lattice height.
	for {
		if !v.KZ.And(v.KO).IsZero() || v.UHi.Ult(v.ULo) || v.SHi.Slt(v.SLo) {
			return Bot(w)
		}
		changed := false
		tightenU := func(lo, hi bv.Vec) {
			if v.ULo.Ult(lo) {
				v.ULo, changed = lo, true
			}
			if hi.Ult(v.UHi) {
				v.UHi, changed = hi, true
			}
		}
		tightenS := func(lo, hi bv.Vec) {
			if v.SLo.Slt(lo) {
				v.SLo, changed = lo, true
			}
			if hi.Slt(v.SHi) {
				v.SHi, changed = hi, true
			}
		}
		// Known bits bound the unsigned range: the smallest compatible
		// value sets only the must-one bits, the largest sets
		// everything except the must-zero bits.
		tightenU(v.KO, v.KZ.Not())
		// Agreeing high bits of the unsigned endpoints are known.
		if agree := v.ULo.Xor(v.UHi).LeadingZeros(); agree > 0 {
			hiMask := bv.Ones(w).Shl(bv.New(w, uint64(w-agree)))
			ko := v.KO.Or(v.ULo.And(hiMask))
			kz := v.KZ.Or(v.ULo.Not().And(hiMask))
			if !ko.Eq(v.KO) || !kz.Eq(v.KZ) {
				v.KO, v.KZ, changed = ko, kz, true
			}
		}
		// A known sign bit clips the signed interval, and vice versa.
		signKnownZero := v.KZ.Bit(w-1) == 1
		signKnownOne := v.KO.Bit(w-1) == 1
		if signKnownZero {
			tightenS(bv.Zero(w), bv.MaxSigned(w))
		}
		if signKnownOne {
			tightenS(bv.MinSigned(w), bv.Ones(w))
		}
		if v.SLo.SignBit() == 0 && v.KZ.Bit(w-1) == 0 {
			v.KZ = v.KZ.Or(bv.MinSigned(w))
			changed = true
		}
		if v.SHi.SignBit() == 1 && v.KO.Bit(w-1) == 0 {
			v.KO = v.KO.Or(bv.MinSigned(w))
			changed = true
		}
		// When all values live in one half-plane, unsigned and signed
		// order coincide and the intervals exchange bounds directly.
		if v.UHi.SignBit() == 0 || v.ULo.SignBit() == 1 {
			tightenS(v.ULo, v.UHi)
		}
		if v.SLo.SignBit() == v.SHi.SignBit() {
			tightenU(v.SLo, v.SHi)
		}
		if !changed {
			return v
		}
	}
}

// Meet intersects two abstractions of the same term (both must hold).
func Meet(a, b Value) Value {
	if a.Width != b.Width {
		panic("absint: Meet width mismatch")
	}
	if a.bot {
		return a
	}
	if b.bot {
		return b
	}
	if a.Width == 0 {
		switch {
		case a.B == BTop:
			return b
		case b.B == BTop || a.B == b.B:
			return a
		}
		return Bot(0)
	}
	return Value{
		Width: a.Width,
		KZ:    a.KZ.Or(b.KZ), KO: a.KO.Or(b.KO),
		ULo: umax(a.ULo, b.ULo), UHi: umin(a.UHi, b.UHi),
		SLo: smax(a.SLo, b.SLo), SHi: smin(a.SHi, b.SHi),
	}.reduce()
}

// Join over-approximates the union of two abstractions (either may
// hold), e.g. the two arms of an ite.
func Join(a, b Value) Value {
	if a.Width != b.Width {
		panic("absint: Join width mismatch")
	}
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	if a.Width == 0 {
		if a.B == b.B {
			return a
		}
		return TopBool()
	}
	return Value{
		Width: a.Width,
		KZ:    a.KZ.And(b.KZ), KO: a.KO.And(b.KO),
		ULo: umin(a.ULo, b.ULo), UHi: umax(a.UHi, b.UHi),
		SLo: smin(a.SLo, b.SLo), SHi: smax(a.SHi, b.SHi),
	}.reduce()
}

// String renders the abstraction for diagnostics.
func (v Value) String() string {
	if v.bot {
		return "⊥"
	}
	if v.Width == 0 {
		return v.B.String()
	}
	if s, ok := v.Singleton(); ok {
		return s.String()
	}
	return "{bits kz=" + v.KZ.String() + " ko=" + v.KO.String() +
		" u=[" + v.ULo.String() + "," + v.UHi.String() +
		"] s=[" + v.SLo.String() + "," + v.SHi.String() + "]}"
}

// AddNoUnsignedWrap reports whether x + y provably cannot / provably
// must wrap around unsigned, given the operands' abstractions.
func AddNoUnsignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	hi := x.UHi.ZExt(w + 1).Add(y.UHi.ZExt(w + 1))
	if hi.Bit(w) == 0 {
		return BTrue
	}
	lo := x.ULo.ZExt(w + 1).Add(y.ULo.ZExt(w + 1))
	if lo.Bit(w) == 1 {
		return BFalse
	}
	return BTop
}

// AddNoSignedWrap is the signed analogue of AddNoUnsignedWrap.
func AddNoSignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	fits := func(v bv.Vec) bool {
		return !v.Slt(bv.MinSigned(w).SExt(w+1)) && !bv.MaxSigned(w).SExt(w+1).Slt(v)
	}
	lo := x.SLo.SExt(w + 1).Add(y.SLo.SExt(w + 1))
	hi := x.SHi.SExt(w + 1).Add(y.SHi.SExt(w + 1))
	if fits(lo) && fits(hi) {
		return BTrue
	}
	// Every sum overflows high, or every sum overflows low.
	if bv.MaxSigned(w).SExt(w + 1).Slt(lo) {
		return BFalse
	}
	if hi.Slt(bv.MinSigned(w).SExt(w + 1)) {
		return BFalse
	}
	return BTop
}

// SubNoUnsignedWrap reports whether x - y provably cannot / must
// borrow.
func SubNoUnsignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	if !x.ULo.Ult(y.UHi) {
		return BTrue
	}
	if x.UHi.Ult(y.ULo) {
		return BFalse
	}
	return BTop
}

// SubNoSignedWrap is the signed analogue of SubNoUnsignedWrap.
func SubNoSignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	fits := func(v bv.Vec) bool {
		return !v.Slt(bv.MinSigned(w).SExt(w+1)) && !bv.MaxSigned(w).SExt(w+1).Slt(v)
	}
	lo := x.SLo.SExt(w + 1).Sub(y.SHi.SExt(w + 1))
	hi := x.SHi.SExt(w + 1).Sub(y.SLo.SExt(w + 1))
	if fits(lo) && fits(hi) {
		return BTrue
	}
	if bv.MaxSigned(w).SExt(w + 1).Slt(lo) {
		return BFalse
	}
	if hi.Slt(bv.MinSigned(w).SExt(w + 1)) {
		return BFalse
	}
	return BTop
}

// MulNoUnsignedWrap reports whether x * y provably cannot wrap
// unsigned (BFalse is not derived; multiplication lower bounds are
// weak).
func MulNoUnsignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	hi := x.UHi.ZExt(2 * w).Mul(y.UHi.ZExt(2 * w))
	if hi.LeadingZeros() >= w {
		return BTrue
	}
	lo := x.ULo.ZExt(2 * w).Mul(y.ULo.ZExt(2 * w))
	if lo.LeadingZeros() < w {
		return BFalse
	}
	return BTop
}

// MulNoSignedWrap reports whether x * y provably cannot wrap signed.
func MulNoSignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	lo2, hi2 := bv.MinSigned(w).SExt(2*w), bv.MaxSigned(w).SExt(2*w)
	all := true
	for _, a := range []bv.Vec{x.SLo, x.SHi} {
		for _, b := range []bv.Vec{y.SLo, y.SHi} {
			p := a.SExt(2 * w).Mul(b.SExt(2 * w))
			if p.Slt(lo2) || hi2.Slt(p) {
				all = false
			}
		}
	}
	if all {
		return BTrue
	}
	return BTop
}

// ShlNoUnsignedWrap reports whether x << y provably loses no set bits
// (the nuw condition for shl), using the maximum feasible shift amount.
func ShlNoUnsignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	// Shift amounts >= width make the instruction undefined regardless
	// of wrap flags, so only amounts up to w-1 matter.
	kmax := y.UHi
	if !kmax.Ult(bv.New(w, uint64(w))) {
		kmax = bv.New(w, uint64(w-1))
	}
	k := int(kmax.Uint64())
	if x.UHi.LeadingZeros() >= k {
		return BTrue
	}
	return BTop
}

// ShlNoSignedWrap reports whether x << y provably keeps the sign and
// loses no significant bits (the nsw condition for shl).
func ShlNoSignedWrap(x, y Value) Bool3 {
	if x.bot || y.bot {
		return BTop
	}
	w := x.Width
	kmax := y.UHi
	if !kmax.Ult(bv.New(w, uint64(w))) {
		kmax = bv.New(w, uint64(w-1))
	}
	k := int(kmax.Uint64())
	// Nonnegative x with k+1 leading zeros shifts without touching the
	// sign bit; that covers the common zext-style operands.
	if x.SLo.SignBit() == 0 && x.UHi.LeadingZeros() >= k+1 {
		return BTrue
	}
	return BTop
}
