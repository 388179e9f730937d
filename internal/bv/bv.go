// Package bv implements fixed-width two's-complement bitvector arithmetic
// of arbitrary width. It is the value domain of the SMT layer: constant
// folding, model evaluation, and counterexample printing all operate on
// bv.Vec values.
//
// A Vec is immutable by convention: all operations return fresh values and
// never mutate their receivers. Widths of binary operands must match;
// mismatches are programming errors and panic.
package bv

import (
	"fmt"
	"strings"
)

const wordBits = 64

// Vec is a bitvector of a fixed width. The value is stored little-endian in
// 64-bit words; bits at positions >= Width are always zero (the
// representation is kept normalized).
type Vec struct {
	width int
	words []uint64
}

func wordsFor(width int) int {
	if width <= 0 {
		panic(fmt.Sprintf("bv: invalid width %d", width))
	}
	return (width + wordBits - 1) / wordBits
}

// New returns a bitvector of the given width holding v truncated to width.
func New(width int, v uint64) Vec {
	x := Vec{width: width, words: make([]uint64, wordsFor(width))}
	x.words[0] = v
	x.norm()
	return x
}

// NewInt returns a bitvector of the given width holding the two's-complement
// encoding of v.
func NewInt(width int, v int64) Vec {
	x := Vec{width: width, words: make([]uint64, wordsFor(width))}
	w := uint64(v)
	for i := range x.words {
		x.words[i] = w
		if v >= 0 {
			w = 0
		} else {
			w = ^uint64(0)
		}
	}
	x.norm()
	return x
}

// Zero returns the all-zeros vector of the given width.
func Zero(width int) Vec { return New(width, 0) }

// One returns the vector holding 1.
func One(width int) Vec { return New(width, 1) }

// Ones returns the all-ones vector (i.e. -1) of the given width.
func Ones(width int) Vec { return NewInt(width, -1) }

// MinSigned returns INT_MIN for the width: 100...0.
func MinSigned(width int) Vec {
	x := Zero(width)
	x.words[(width-1)/wordBits] = 1 << uint((width-1)%wordBits)
	return x
}

// MaxSigned returns INT_MAX for the width: 011...1.
func MaxSigned(width int) Vec { return MinSigned(width).Not() }

// norm clears bits above width.
func (x *Vec) norm() {
	last := len(x.words) - 1
	rem := uint(x.width % wordBits)
	if rem != 0 {
		x.words[last] &= (1 << rem) - 1
	}
}

func (x Vec) clone() Vec {
	w := make([]uint64, len(x.words))
	copy(w, x.words)
	return Vec{width: x.width, words: w}
}

// Width returns the bit width of x.
func (x Vec) Width() int { return x.width }

// IsZero reports whether every bit of x is zero.
func (x Vec) IsZero() bool {
	for _, w := range x.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOnes reports whether every bit of x is one.
func (x Vec) IsOnes() bool { return x.Not().IsZero() }

// IsOne reports whether x holds the value 1.
func (x Vec) IsOne() bool {
	if x.words[0] != 1 {
		return false
	}
	for _, w := range x.words[1:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns bit i of x (0 or 1); i must be in [0, Width).
func (x Vec) Bit(i int) uint {
	if i < 0 || i >= x.width {
		panic(fmt.Sprintf("bv: bit index %d out of range for width %d", i, x.width))
	}
	return uint(x.words[i/wordBits]>>(uint(i)%wordBits)) & 1
}

// SignBit returns the most significant bit of x.
func (x Vec) SignBit() uint { return x.Bit(x.width - 1) }

// Uint64 returns the low 64 bits of x as an unsigned integer.
func (x Vec) Uint64() uint64 { return x.words[0] }

// Word returns bits 64i to 64i+63 of x; i must be below (Width+63)/64.
func (x Vec) Word(i int) uint64 { return x.words[i] }

// Int64 returns the value of x sign-extended to 64 bits. It panics if the
// width exceeds 64 (use only when Width <= 64).
func (x Vec) Int64() int64 {
	if x.width > 64 {
		panic("bv: Int64 on width > 64")
	}
	v := x.words[0]
	if x.width < 64 && x.Bit(x.width-1) == 1 {
		v |= ^uint64(0) << uint(x.width)
	}
	return int64(v)
}

// Eq reports whether x and y hold the same value (widths must match).
func (x Vec) Eq(y Vec) bool {
	x.check(y)
	for i := range x.words {
		if x.words[i] != y.words[i] {
			return false
		}
	}
	return true
}

func (x Vec) check(y Vec) {
	if x.width != y.width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d", x.width, y.width))
	}
}

// Not returns the bitwise complement of x.
func (x Vec) Not() Vec {
	z := x.clone()
	for i := range z.words {
		z.words[i] = ^z.words[i]
	}
	z.norm()
	return z
}

// And returns x & y.
func (x Vec) And(y Vec) Vec {
	x.check(y)
	z := x.clone()
	for i := range z.words {
		z.words[i] &= y.words[i]
	}
	return z
}

// Or returns x | y.
func (x Vec) Or(y Vec) Vec {
	x.check(y)
	z := x.clone()
	for i := range z.words {
		z.words[i] |= y.words[i]
	}
	return z
}

// Xor returns x ^ y.
func (x Vec) Xor(y Vec) Vec {
	x.check(y)
	z := x.clone()
	for i := range z.words {
		z.words[i] ^= y.words[i]
	}
	return z
}

// Add returns x + y modulo 2^width.
func (x Vec) Add(y Vec) Vec {
	x.check(y)
	z := x.clone()
	var carry uint64
	for i := range z.words {
		s := z.words[i] + y.words[i]
		c1 := boolToU64(s < z.words[i])
		s2 := s + carry
		c2 := boolToU64(s2 < s)
		z.words[i] = s2
		carry = c1 | c2
	}
	z.norm()
	return z
}

// Sub returns x - y modulo 2^width.
func (x Vec) Sub(y Vec) Vec { return x.Add(y.Neg()) }

// Neg returns -x modulo 2^width.
func (x Vec) Neg() Vec { return x.Not().Add(One(x.width)) }

// Mul returns x * y modulo 2^width.
func (x Vec) Mul(y Vec) Vec {
	x.check(y)
	n := len(x.words)
	acc := make([]uint64, n)
	for i := 0; i < n; i++ {
		if y.words[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < n; j++ {
			hi, lo := mul64(x.words[j], y.words[i])
			// acc[i+j] += lo + carry, propagating into carry and hi.
			s := acc[i+j] + lo
			c := boolToU64(s < lo)
			s2 := s + carry
			c += boolToU64(s2 < s)
			acc[i+j] = s2
			carry = hi + c // cannot overflow: hi <= 2^64-2
		}
	}
	z := Vec{width: x.width, words: acc}
	z.norm()
	return z
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	t2 := a0*b1 + t&mask
	lo |= t2 << 32
	hi = a1*b1 + c + t2>>32
	return
}

// Udiv returns the unsigned quotient x / y. Division by zero returns the
// all-ones vector (matching the SMT-LIB bvudiv convention); callers encoding
// LLVM semantics must guard with definedness constraints.
func (x Vec) Udiv(y Vec) Vec {
	q, _ := x.udivrem(y)
	return q
}

// Urem returns the unsigned remainder x % y. Remainder by zero returns x
// (SMT-LIB bvurem convention).
func (x Vec) Urem(y Vec) Vec {
	_, r := x.udivrem(y)
	return r
}

func (x Vec) udivrem(y Vec) (q, r Vec) {
	x.check(y)
	if y.IsZero() {
		return Ones(x.width), x.clone()
	}
	q = Zero(x.width)
	r = Zero(x.width)
	for i := x.width - 1; i >= 0; i-- {
		r = r.shl1()
		if x.Bit(i) == 1 {
			r.words[0] |= 1
		}
		if !r.Ult(y) {
			r = r.Sub(y)
			q.words[i/wordBits] |= 1 << uint(i%wordBits)
		}
	}
	return q, r
}

func (x Vec) shl1() Vec {
	z := x.clone()
	var carry uint64
	for i := range z.words {
		nc := z.words[i] >> 63
		z.words[i] = z.words[i]<<1 | carry
		carry = nc
	}
	z.norm()
	return z
}

// Sdiv returns the signed quotient, truncating toward zero. Division by
// zero follows the SMT-LIB convention of Udiv on the absolute values with
// result sign fixed up; INT_MIN / -1 wraps to INT_MIN.
func (x Vec) Sdiv(y Vec) Vec {
	xneg, yneg := x.SignBit() == 1, y.SignBit() == 1
	ax, ay := x.abs(), y.abs()
	q := ax.Udiv(ay)
	if xneg != yneg {
		q = q.Neg()
	}
	return q
}

// Srem returns the signed remainder; the result has the sign of the
// dividend.
func (x Vec) Srem(y Vec) Vec {
	xneg := x.SignBit() == 1
	ax, ay := x.abs(), y.abs()
	r := ax.Urem(ay)
	if xneg {
		r = r.Neg()
	}
	return r
}

func (x Vec) abs() Vec {
	if x.SignBit() == 1 {
		return x.Neg()
	}
	return x.clone()
}

// Shl returns x << y. Shift amounts >= width yield zero.
func (x Vec) Shl(y Vec) Vec {
	x.check(y)
	sh, ok := y.shiftAmount()
	if !ok {
		return Zero(x.width)
	}
	z := Zero(x.width)
	wordShift, bitShift := sh/wordBits, uint(sh%wordBits)
	for i := len(z.words) - 1; i >= wordShift; i-- {
		z.words[i] = x.words[i-wordShift] << bitShift
		if bitShift != 0 && i-wordShift-1 >= 0 {
			z.words[i] |= x.words[i-wordShift-1] >> (wordBits - bitShift)
		}
	}
	z.norm()
	return z
}

// Lshr returns the logical right shift x >>u y. Shift amounts >= width
// yield zero.
func (x Vec) Lshr(y Vec) Vec {
	x.check(y)
	sh, ok := y.shiftAmount()
	if !ok {
		return Zero(x.width)
	}
	z := Zero(x.width)
	wordShift, bitShift := sh/wordBits, uint(sh%wordBits)
	for i := 0; i+wordShift < len(z.words); i++ {
		z.words[i] = x.words[i+wordShift] >> bitShift
		if bitShift != 0 && i+wordShift+1 < len(x.words) {
			z.words[i] |= x.words[i+wordShift+1] << (wordBits - bitShift)
		}
	}
	return z
}

// Ashr returns the arithmetic right shift x >>s y. Shift amounts >= width
// yield 0 or -1 depending on the sign bit.
func (x Vec) Ashr(y Vec) Vec {
	x.check(y)
	neg := x.SignBit() == 1
	sh, ok := y.shiftAmount()
	if !ok {
		if neg {
			return Ones(x.width)
		}
		return Zero(x.width)
	}
	z := x.Lshr(y)
	if neg && sh > 0 {
		// Fill the top sh bits with ones.
		fill := Ones(x.width).Shl(New(x.width, uint64(x.width-sh)))
		z = z.Or(fill)
	}
	return z
}

// shiftAmount extracts y as an in-range shift amount. ok is false when
// y >= width.
func (y Vec) shiftAmount() (int, bool) {
	for _, w := range y.words[1:] {
		if w != 0 {
			return 0, false
		}
	}
	if y.words[0] >= uint64(y.width) {
		return 0, false
	}
	return int(y.words[0]), true
}

// Ult reports x <u y.
func (x Vec) Ult(y Vec) bool {
	x.check(y)
	for i := len(x.words) - 1; i >= 0; i-- {
		if x.words[i] != y.words[i] {
			return x.words[i] < y.words[i]
		}
	}
	return false
}

// Ule reports x <=u y.
func (x Vec) Ule(y Vec) bool { return !y.Ult(x) }

// Slt reports x <s y.
func (x Vec) Slt(y Vec) bool {
	xs, ys := x.SignBit(), y.SignBit()
	if xs != ys {
		return xs == 1
	}
	return x.Ult(y)
}

// Sle reports x <=s y.
func (x Vec) Sle(y Vec) bool { return !y.Slt(x) }

// ZExt returns x zero-extended to the given width (>= Width).
func (x Vec) ZExt(width int) Vec {
	if width < x.width {
		panic("bv: ZExt to smaller width")
	}
	z := Zero(width)
	copy(z.words, x.words)
	return z
}

// SExt returns x sign-extended to the given width (>= Width).
func (x Vec) SExt(width int) Vec {
	if width < x.width {
		panic("bv: SExt to smaller width")
	}
	z := Zero(width)
	copy(z.words, x.words)
	if x.SignBit() == 1 {
		hi := Ones(width).Shl(New(width, uint64(x.width)))
		z = z.Or(hi)
	}
	return z
}

// Trunc returns the low width bits of x (width <= Width).
func (x Vec) Trunc(width int) Vec {
	if width > x.width {
		panic("bv: Trunc to larger width")
	}
	z := Vec{width: width, words: make([]uint64, wordsFor(width))}
	copy(z.words, x.words)
	z.norm()
	return z
}

// Concat returns the concatenation with x in the high bits and y in the
// low bits.
func (x Vec) Concat(y Vec) Vec {
	z := x.ZExt(x.width + y.width).Shl(New(x.width+y.width, uint64(y.width)))
	return z.Or(y.ZExt(x.width + y.width))
}

// Extract returns bits hi..lo of x (inclusive) as a vector of width
// hi-lo+1.
func (x Vec) Extract(hi, lo int) Vec {
	if lo < 0 || hi >= x.width || hi < lo {
		panic(fmt.Sprintf("bv: extract [%d:%d] out of range for width %d", hi, lo, x.width))
	}
	return x.Lshr(New(x.width, uint64(lo))).Trunc(hi - lo + 1)
}

// PopCount returns the number of set bits.
func (x Vec) PopCount() int {
	n := 0
	for _, w := range x.words {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// LeadingZeros returns the number of zero bits above the most significant
// set bit; Width when x is zero.
func (x Vec) LeadingZeros() int {
	for i := x.width - 1; i >= 0; i-- {
		if x.Bit(i) == 1 {
			return x.width - 1 - i
		}
	}
	return x.width
}

// TrailingZeros returns the number of zero bits below the least significant
// set bit; Width when x is zero.
func (x Vec) TrailingZeros() int {
	for i := 0; i < x.width; i++ {
		if x.Bit(i) == 1 {
			return i
		}
	}
	return x.width
}

// Log2 returns the position of the highest set bit (floor(log2 x));
// 0 when x is zero.
func (x Vec) Log2() int {
	if x.IsZero() {
		return 0
	}
	return x.width - 1 - x.LeadingZeros()
}

// IsPowerOfTwo reports whether exactly one bit of x is set.
func (x Vec) IsPowerOfTwo() bool { return x.PopCount() == 1 }

// String formats x as a hex literal, e.g. "0xF".
func (x Vec) String() string {
	digits := (x.width + 3) / 4
	var sb strings.Builder
	sb.WriteString("0x")
	for i := digits - 1; i >= 0; i-- {
		lo := i * 4
		hi := lo + 3
		if hi >= x.width {
			hi = x.width - 1
		}
		d := x.Extract(hi, lo).Uint64()
		fmt.Fprintf(&sb, "%X", d)
	}
	return sb.String()
}

// DecimalString renders x in the paper's counterexample style:
// "0xF (15, -1)" — hex, unsigned decimal, and signed decimal when it
// differs. Widths above 64 bits print hex only.
func (x Vec) DecimalString() string {
	if x.width > 64 {
		return x.String()
	}
	u := x.Uint64()
	s := x.Int64()
	if s < 0 {
		return fmt.Sprintf("%s (%d, %d)", x.String(), u, s)
	}
	return fmt.Sprintf("%s (%d)", x.String(), u)
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
