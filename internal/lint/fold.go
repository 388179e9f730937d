package lint

import (
	"alive/internal/bv"
	"alive/internal/ir"
)

// literals is the environment the precondition folder evaluates in at
// one probe width: it binds no constant and gives every value that
// width, and it answers no analysis.
type literals int

func (literals) Const(*ir.AbstractConst) (bv.Vec, bool) { return bv.Vec{}, false }
func (w literals) Width(ir.Value) (int, bool)           { return int(w), true }
func (literals) Analysis(*ir.FuncPred) ir.Truth         { return ir.Undecided }

// literalOnly reports whether v is a constant expression over integer
// literals alone (foldable at any width).
func literalOnly(v ir.Value) bool {
	switch v := v.(type) {
	case *ir.Literal:
		return true
	case *ir.ConstUnExpr:
		return literalOnly(v.X)
	case *ir.ConstBinExpr:
		return literalOnly(v.X) && literalOnly(v.Y)
	case *ir.ConstFunc:
		switch v.FName {
		case "log2", "abs", "umax", "umin", "smax", "smin", "max", "min":
		default:
			return false
		}
		for _, a := range v.Args {
			if !literalOnly(a) {
				return false
			}
		}
		return true
	}
	return false
}

// minLiteralBits returns the smallest width at which every literal in
// the expression is exactly representable: bit length for non-negative
// values, two's-complement length for negative ones. Bool literals need
// one bit.
func minLiteralBits(v ir.Value) int {
	bits := 1
	var rec func(u ir.Value)
	rec = func(u ir.Value) {
		switch u := u.(type) {
		case *ir.Literal:
			if n := literalBits(u); n > bits {
				bits = n
			}
		case *ir.ConstUnExpr:
			rec(u.X)
		case *ir.ConstBinExpr:
			rec(u.X)
			rec(u.Y)
		case *ir.ConstFunc:
			for _, a := range u.Args {
				rec(a)
			}
		}
	}
	rec(v)
	return bits
}

// literalBits is the minimum width representing one literal exactly.
func literalBits(l *ir.Literal) int {
	if l.Bool {
		return 1
	}
	v := l.V
	if v < 0 {
		v = ^v // two's complement: need bitlen(^v)+1 bits
		n := 1
		for ; v != 0; v >>= 1 {
			n++
		}
		return n
	}
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// probeWidths is the width sample the precondition folder evaluates at,
// mirroring the enumerator's default candidate set.
var probeWidths = []int{1, 4, 8, 16, 32, 64}
