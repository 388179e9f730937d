package miniir

import (
	"alive/internal/bv"
)

// KnownBits is the classic LLVM computeKnownBits abstraction: for every
// bit position, whether it is known to be zero or known to be one. The
// peephole driver uses it to evaluate MaskedValueIsZero on non-constant
// values, mirroring the LLVM analyses that Alive's built-in predicates
// trust (Section 2.3).
type KnownBits struct {
	Zero bv.Vec // bits known to be 0
	One  bv.Vec // bits known to be 1
}

// Width returns the tracked width.
func (k KnownBits) Width() int { return k.Zero.Width() }

// unknown returns a KnownBits with nothing known.
func unknownBits(w int) KnownBits {
	return KnownBits{Zero: bv.Zero(w), One: bv.Zero(w)}
}

func constBits(v bv.Vec) KnownBits {
	return KnownBits{Zero: v.Not(), One: v}
}

// knownBitsOf returns the known bits of v, computing them from those of
// its operands on demand and memoizing every result in known. Like
// LLVM's computeKnownBits, it visits only the values v depends on.
func knownBitsOf(v *Instr, known map[*Instr]KnownBits) KnownBits {
	if k, ok := known[v]; ok {
		return k
	}
	var k KnownBits
	if v.Op == OpParam {
		k = unknownBits(v.Width)
	} else {
		k = transfer(v, func(a *Instr) KnownBits { return knownBitsOf(a, known) })
	}
	known[v] = k
	return k
}

func transfer(in *Instr, get func(*Instr) KnownBits) KnownBits {
	w := in.Width
	switch in.Op {
	case OpConst:
		return constBits(in.Const)
	case OpAnd:
		a, b := get(in.Args[0]), get(in.Args[1])
		return KnownBits{Zero: a.Zero.Or(b.Zero), One: a.One.And(b.One)}
	case OpOr:
		a, b := get(in.Args[0]), get(in.Args[1])
		return KnownBits{Zero: a.Zero.And(b.Zero), One: a.One.Or(b.One)}
	case OpXor:
		a, b := get(in.Args[0]), get(in.Args[1])
		knownAll := a.Zero.Or(a.One).And(b.Zero.Or(b.One))
		ones := a.One.Xor(b.One).And(knownAll)
		return KnownBits{Zero: knownAll.And(ones.Not()), One: ones}
	case OpShl:
		if c, ok := constOf(in.Args[1]); ok && c.Ult(bv.New(c.Width(), uint64(w))) {
			a := get(in.Args[0])
			sh := bv.New(w, c.Uint64())
			lowZeros := bv.Ones(w).Lshr(bv.New(w, uint64(w)-c.Uint64())) // the c vacated low bits
			return KnownBits{Zero: a.Zero.Shl(sh).Or(lowZeros), One: a.One.Shl(sh)}
		}
	case OpLShr:
		if c, ok := constOf(in.Args[1]); ok && c.Ult(bv.New(c.Width(), uint64(w))) {
			a := get(in.Args[0])
			sh := bv.New(w, c.Uint64())
			hiZeros := bv.Ones(w).Shl(bv.New(w, uint64(w)-c.Uint64()))
			return KnownBits{Zero: a.Zero.Lshr(sh).Or(hiZeros), One: a.One.Lshr(sh)}
		}
	case OpZExt:
		a := get(in.Args[0])
		ext := bv.Ones(w).Shl(bv.New(w, uint64(a.Width())))
		return KnownBits{Zero: a.Zero.ZExt(w).Or(ext), One: a.One.ZExt(w)}
	case OpSExt:
		a := get(in.Args[0])
		return KnownBits{Zero: a.Zero.SExt(w), One: a.One.SExt(w)}
	case OpTrunc:
		a := get(in.Args[0])
		return KnownBits{Zero: a.Zero.Trunc(w), One: a.One.Trunc(w)}
	case OpUDiv, OpURem:
		// Result cannot exceed the dividend's known leading zeros.
		a := get(in.Args[0])
		lz := a.Zero.Not().LeadingZeros() // conservative: leading known zeros
		if lz > 0 {
			z := bv.Ones(w).Shl(bv.New(w, uint64(w-lz)))
			return KnownBits{Zero: z, One: bv.Zero(w)}
		}
	case OpICmp:
		return unknownBits(1)
	case OpAdd, OpSub:
		// Track known low zero bits (alignment-style facts).
		a, b := get(in.Args[0]), get(in.Args[1])
		tz := trailingKnownZeros(a)
		if t := trailingKnownZeros(b); t < tz {
			tz = t
		}
		if tz > 0 {
			z := bv.Ones(w).Lshr(bv.New(w, uint64(w-tz)))
			return KnownBits{Zero: z, One: bv.Zero(w)}
		}
	}
	return unknownBits(w)
}

func trailingKnownZeros(k KnownBits) int {
	// Number of consecutive low bits known to be zero.
	n := 0
	for i := 0; i < k.Width(); i++ {
		if k.Zero.Bit(i) == 1 {
			n++
		} else {
			break
		}
	}
	return n
}

func constOf(in *Instr) (bv.Vec, bool) {
	if in.Op == OpConst {
		return in.Const, true
	}
	return bv.Vec{}, false
}

// KnownPowerOfTwo reports whether v is provably a power of two: a
// constant power of two, or 1 << x with x in range, or a zext/shl chain
// of one.
func KnownPowerOfTwo(v *Instr) bool {
	switch v.Op {
	case OpConst:
		return v.Const.IsPowerOfTwo()
	case OpShl:
		if c, ok := constOf(v.Args[0]); ok && c.IsOne() {
			// 1 << x is a power of two whenever defined; the interpreter
			// rejects out-of-range shifts before this matters.
			return true
		}
		return KnownPowerOfTwo(v.Args[0])
	case OpZExt:
		return KnownPowerOfTwo(v.Args[0])
	}
	return false
}
