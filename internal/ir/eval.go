package ir

import "alive/internal/bv"

// This file is the one concrete semantics of constant expressions and
// preconditions (§2.3, §3.1.1). It is vcgen's encoding evaluated over
// values, with two differences: division and remainder by a zero
// constant are undefined rather than SMT-LIB's total operations, and the
// logic is Kleene's three-valued one, so a subterm the evaluation cannot
// decide never decides a precondition. The linter and the mini-IR
// optimizer evaluate through it; they differ only in their Env.

// Truth is a value of Kleene's three-valued logic. The zero value is
// Undecided.
type Truth int8

// Truth values.
const (
	Undecided Truth = iota
	False
	True
)

// TruthOf returns True or False.
func TruthOf(b bool) Truth {
	if b {
		return True
	}
	return False
}

// Env is what an evaluation reads from its caller.
type Env interface {
	// Const returns the value bound to an abstract constant.
	Const(c *AbstractConst) (bv.Vec, bool)
	// Width returns the bound width, always positive, of a value that
	// fixes the width of its class: an input, abstract constant, literal
	// or instruction, or a constant expression none of whose leaves does.
	Width(v Value) (int, bool)
	// Analysis answers a built-in predicate the evaluator does not decide
	// itself: a structural or unknown one, or a value predicate, with its
	// number of arguments, one of which is not a compile-time constant.
	Analysis(p *FuncPred) Truth
}

// EvalConst evaluates the constant expression v at width w. It reports
// false when v is undefined, is not a constant expression, or reads a
// constant or width that env does not bind.
func EvalConst(v Value, w int, env Env) (bv.Vec, bool) {
	switch v := v.(type) {
	case *Literal:
		return bv.NewInt(w, v.V), true
	case *AbstractConst:
		c, ok := env.Const(v)
		return c, ok && c.Width() == w
	case *ConstUnExpr:
		x, ok := EvalConst(v.X, w, env)
		if !ok {
			return bv.Vec{}, false
		}
		if v.Op == CNeg {
			return x.Neg(), true
		}
		return x.Not(), true
	case *ConstBinExpr:
		x, ok := EvalConst(v.X, w, env)
		if !ok {
			return bv.Vec{}, false
		}
		y, ok := EvalConst(v.Y, w, env)
		if !ok {
			return bv.Vec{}, false
		}
		return constBin(v.Op, x, y)
	case *ConstFunc:
		return constFunc(v, w, env)
	}
	return bv.Vec{}, false
}

func constBin(op ConstBinOp, x, y bv.Vec) (bv.Vec, bool) {
	switch op {
	case CAdd:
		return x.Add(y), true
	case CSub:
		return x.Sub(y), true
	case CMul:
		return x.Mul(y), true
	case CShl:
		return x.Shl(y), true
	case CAShr:
		return x.Ashr(y), true
	case CLShr:
		return x.Lshr(y), true
	case CAnd:
		return x.And(y), true
	case COr:
		return x.Or(y), true
	case CXor:
		return x.Xor(y), true
	}
	if y.IsZero() {
		return bv.Vec{}, false // undefined, as for the instructions
	}
	switch op {
	case CSDiv:
		return x.Sdiv(y), true
	case CUDiv:
		return x.Udiv(y), true
	case CSRem:
		return x.Srem(y), true
	case CURem:
		return x.Urem(y), true
	}
	return bv.Vec{}, false
}

// constFunc evaluates the built-in constant functions vcgen encodes.
// max and min are signed.
func constFunc(v *ConstFunc, w int, env Env) (bv.Vec, bool) {
	arity := 1
	switch v.FName {
	case "umax", "umin", "smax", "smin", "max", "min":
		arity = 2
	}
	if len(v.Args) != arity {
		return bv.Vec{}, false
	}
	switch v.FName {
	case "width":
		n, ok := widthOf(v.Args[0], env)
		if !ok {
			return bv.Vec{}, false
		}
		return bv.New(w, uint64(n)), true
	case "zext", "sext", "trunc":
		// The argument has its own width; no result width fixes it.
		n, ok := widthOf(v.Args[0], env)
		if !ok {
			return bv.Vec{}, false
		}
		x, ok := EvalConst(v.Args[0], n, env)
		switch {
		case !ok:
		case v.FName == "trunc" && n >= w:
			return x.Trunc(w), true
		case v.FName == "zext" && n <= w:
			return x.ZExt(w), true
		case v.FName == "sext" && n <= w:
			return x.SExt(w), true
		}
		return bv.Vec{}, false
	}
	x, ok := EvalConst(v.Args[0], w, env)
	if !ok {
		return bv.Vec{}, false
	}
	switch v.FName {
	case "log2":
		return bv.New(w, uint64(x.Log2())), true
	case "abs":
		if x.SignBit() == 1 {
			return x.Neg(), true
		}
		return x, true
	case "ctlz", "countLeadingZeros":
		return bv.New(w, uint64(x.LeadingZeros())), true
	case "cttz", "countTrailingZeros":
		return bv.New(w, uint64(x.TrailingZeros())), true
	}
	if arity != 2 {
		return bv.Vec{}, false
	}
	y, ok := EvalConst(v.Args[1], w, env)
	if !ok {
		return bv.Vec{}, false
	}
	var first bool // whether the result is x
	switch v.FName {
	case "umax":
		first = y.Ult(x)
	case "umin":
		first = x.Ult(y)
	case "smax", "max":
		first = y.Slt(x)
	default: // smin, min
		first = x.Slt(y)
	}
	if first {
		return x, true
	}
	return y, true
}

// widthOf returns the bound width of v's class: the first width env
// binds to a leaf reached through operators that keep their operands'
// width, or else the width env binds to v itself. width, zext, sext and
// trunc do not keep it: their results' widths are independent of their
// arguments'.
func widthOf(v Value, env Env) (int, bool) {
	switch v := v.(type) {
	case *ConstUnExpr:
		if w, ok := widthOf(v.X, env); ok {
			return w, true
		}
	case *ConstBinExpr:
		if w, ok := widthOf(v.X, env); ok {
			return w, true
		}
		if w, ok := widthOf(v.Y, env); ok {
			return w, true
		}
	case *ConstFunc:
		switch v.FName {
		case "width", "zext", "sext", "trunc":
		default:
			for _, a := range v.Args {
				if w, ok := widthOf(a, env); ok {
					return w, true
				}
			}
		}
	}
	return env.Width(v)
}

// EvalPred evaluates a precondition. A conjunction is False when a
// conjunct is, a disjunction True when a disjunct is, and a comparison
// or built-in predicate Undecided when an operand is. A built-in value
// predicate is decided here when every argument satisfies IsConstValue,
// as vcgen encodes it precisely then; env answers the rest.
func EvalPred(p Pred, env Env) Truth {
	switch q := p.(type) {
	case nil, TruePred:
		return True
	case *NotPred:
		switch EvalPred(q.P, env) {
		case True:
			return False
		case False:
			return True
		}
		return Undecided
	case *AndPred:
		r := True
		for _, s := range q.Ps {
			switch EvalPred(s, env) {
			case False:
				return False
			case Undecided:
				r = Undecided
			}
		}
		return r
	case *OrPred:
		r := False
		for _, s := range q.Ps {
			switch EvalPred(s, env) {
			case True:
				return True
			case Undecided:
				r = Undecided
			}
		}
		return r
	case *CmpPred:
		x, y, ok := evalPair(q.X, q.Y, env)
		if !ok {
			return Undecided
		}
		return TruthOf(compare(q.Op, x, y))
	case *FuncPred:
		return funcPred(q, env)
	}
	return Undecided
}

// evalPair evaluates two constant expressions of one class at the
// class's bound width. b may be a itself.
func evalPair(a, b Value, env Env) (x, y bv.Vec, ok bool) {
	w, ok := widthOf(a, env)
	if !ok && b != a {
		w, ok = widthOf(b, env)
	}
	if !ok {
		return x, y, false
	}
	if x, ok = EvalConst(a, w, env); !ok || b == a {
		return x, x, ok
	}
	y, ok = EvalConst(b, w, env)
	return x, y, ok
}

func compare(op PredCmpOp, x, y bv.Vec) bool {
	switch op {
	case PEq:
		return x.Eq(y)
	case PNe:
		return !x.Eq(y)
	case PSlt:
		return x.Slt(y)
	case PSle:
		return x.Sle(y)
	case PSgt:
		return y.Slt(x)
	case PSge:
		return y.Sle(x)
	case PUlt:
		return x.Ult(y)
	case PUle:
		return x.Ule(y)
	case PUgt:
		return y.Ult(x)
	case PUge:
		return y.Ule(x)
	}
	return false
}

// valuePred is the semantics of a built-in predicate over values. A
// unary predicate ignores y.
type valuePred struct {
	arity int
	holds func(x, y bv.Vec) bool
}

// valuePreds are the built-in predicates with a semantics over values,
// vcgen's predSpecs without the structural ones. The two-argument ones
// take arguments of one width.
var valuePreds = map[string]valuePred{
	"isPowerOf2":       {1, func(x, _ bv.Vec) bool { return x.IsPowerOfTwo() }},
	"isPowerOf2OrZero": {1, func(x, _ bv.Vec) bool { return x.IsZero() || x.IsPowerOfTwo() }},
	"isSignBit":        {1, func(x, _ bv.Vec) bool { return x.Eq(bv.MinSigned(x.Width())) }},
	"isShiftedMask": {1, func(x, _ bv.Vec) bool {
		// A contiguous run of ones: filling the zeros below it gives
		// all ones from bit 0, and adding 1 clears them all.
		one := bv.One(x.Width())
		filled := x.Or(x.Sub(one))
		return !x.IsZero() && filled.Add(one).And(filled).IsZero()
	}},
	"MaskedValueIsZero":          {2, func(x, y bv.Vec) bool { return x.And(y).IsZero() }},
	"mayAlias":                   {2, bv.Vec.Eq},
	"WillNotOverflowSignedAdd":   {2, noWrap(Add, NSW)},
	"WillNotOverflowUnsignedAdd": {2, noWrap(Add, NUW)},
	"WillNotOverflowSignedSub":   {2, noWrap(Sub, NSW)},
	"WillNotOverflowUnsignedSub": {2, noWrap(Sub, NUW)},
	"WillNotOverflowSignedMul":   {2, noWrap(Mul, NSW)},
	"WillNotOverflowUnsignedMul": {2, noWrap(Mul, NUW)},
	"WillNotOverflowSignedShl":   {2, noWrap(Shl, NSW)},
	"WillNotOverflowUnsignedShl": {2, noWrap(Shl, NUW)},
}

func noWrap(op BinOpKind, f Flags) func(x, y bv.Vec) bool {
	return func(x, y bv.Vec) bool { return !Wraps(op, f, x, y) }
}

func funcPred(p *FuncPred, env Env) Truth {
	sem, known := valuePreds[p.FName]
	switch {
	case !known:
		return env.Analysis(p)
	case len(p.Args) != sem.arity:
		return Undecided
	}
	for _, a := range p.Args {
		if !IsConstValue(a) {
			return env.Analysis(p)
		}
	}
	x, y, ok := evalPair(p.Args[0], p.Args[sem.arity-1], env)
	if !ok {
		return Undecided
	}
	return TruthOf(sem.holds(x, y))
}

// Wraps reports whether op on x and y breaks the Table 2 condition of
// an attribute in f: nsw or nuw on add, sub, mul and shl (the result
// differs from the infinitely precise one), exact on sdiv, udiv, ashr
// and lshr (a nonzero remainder). It is vcgen's noWrap and exactCond
// over values, and it serves both the attributes of instructions and
// the WillNotOverflow predicates.
func Wraps(op BinOpKind, f Flags, x, y bv.Vec) bool {
	return f&NSW != 0 && wraps(op, x, y, bv.Vec.SExt, bv.Vec.Ashr) ||
		f&NUW != 0 && wraps(op, x, y, bv.Vec.ZExt, bv.Vec.Lshr) ||
		f&Exact != 0 && inexact(op, x, y)
}

// wraps compares op on x and y extended through ext, wide enough to be
// exact, with op's result extended; for shl it compares x with the
// result shifted back through shr.
func wraps(op BinOpKind, x, y bv.Vec, ext func(bv.Vec, int) bv.Vec, shr func(bv.Vec, bv.Vec) bv.Vec) bool {
	w := x.Width()
	switch op {
	case Add:
		return !ext(x, w+1).Add(ext(y, w+1)).Eq(ext(x.Add(y), w+1))
	case Sub:
		return !ext(x, w+1).Sub(ext(y, w+1)).Eq(ext(x.Sub(y), w+1))
	case Mul:
		return !ext(x, 2*w).Mul(ext(y, 2*w)).Eq(ext(x.Mul(y), 2*w))
	case Shl:
		return !shr(x.Shl(y), y).Eq(x)
	}
	return false
}

func inexact(op BinOpKind, x, y bv.Vec) bool {
	switch op {
	case SDiv:
		return !x.Sdiv(y).Mul(y).Eq(x)
	case UDiv:
		return !x.Udiv(y).Mul(y).Eq(x)
	case AShr:
		return !x.Ashr(y).Shl(y).Eq(x)
	case LShr:
		return !x.Lshr(y).Shl(y).Eq(x)
	}
	return false
}
