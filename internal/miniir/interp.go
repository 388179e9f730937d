package miniir

import (
	"fmt"

	"alive/internal/bv"
	"alive/internal/ir"
)

// ExecValue is an interpreted SSA value: a bitvector plus a poison taint.
type ExecValue struct {
	V      bv.Vec
	Poison bool
}

// ErrUndefined is returned when execution hits true undefined behavior
// (division by zero, INT_MIN/-1, or an out-of-range shift per Table 1).
type ErrUndefined struct {
	In *Instr
}

func (e *ErrUndefined) Error() string {
	return fmt.Sprintf("undefined behavior in %s", e.In.Op)
}

// Interpret executes f on the given parameter values, following the
// LLVM/Alive semantics: Table 1 definedness violations abort execution,
// poison propagates through dependent instructions.
func Interpret(f *Function, params []bv.Vec) (ExecValue, error) {
	if len(params) != len(f.Params) {
		return ExecValue{}, fmt.Errorf("want %d parameters, got %d", len(f.Params), len(params))
	}
	env := map[*Instr]ExecValue{}
	for i, p := range f.Params {
		if params[i].Width() != p.Width {
			return ExecValue{}, fmt.Errorf("parameter %d width mismatch", i)
		}
		env[p] = ExecValue{V: params[i]}
	}
	var args [3]ExecValue
	for _, in := range f.Body {
		for i, a := range in.Args {
			args[i] = env[a]
		}
		v, err := step(in, args[:len(in.Args)])
		if err != nil {
			return ExecValue{}, err
		}
		env[in] = v
	}
	return env[f.Ret], nil
}

// step executes one instruction on the values of its operands, in order.
func step(in *Instr, args []ExecValue) (ExecValue, error) {
	poison := false
	for _, a := range args {
		poison = poison || a.Poison
	}
	switch in.Op {
	case OpConst:
		return ExecValue{V: in.Const}, nil
	case OpICmp:
		x, y := args[0].V, args[1].V
		r := bv.Zero(1)
		if evalCond(in.Cond, x, y) {
			r = bv.One(1)
		}
		return ExecValue{V: r, Poison: poison}, nil
	case OpSelect:
		c := args[0]
		// A poison condition poisons the result; otherwise pick a branch.
		if c.V.IsOne() {
			return ExecValue{V: args[1].V, Poison: poison}, nil
		}
		return ExecValue{V: args[2].V, Poison: poison}, nil
	case OpZExt:
		return ExecValue{V: args[0].V.ZExt(in.Width), Poison: poison}, nil
	case OpSExt:
		return ExecValue{V: args[0].V.SExt(in.Width), Poison: poison}, nil
	case OpTrunc:
		return ExecValue{V: args[0].V.Trunc(in.Width), Poison: poison}, nil
	}

	// Binary operators: definedness per Table 1, poison per Table 2.
	x, y := args[0].V, args[1].V
	w := in.Width
	switch in.Op {
	case OpUDiv, OpURem:
		if y.IsZero() {
			return ExecValue{}, &ErrUndefined{in}
		}
	case OpSDiv, OpSRem:
		if y.IsZero() || (x.Eq(bv.MinSigned(w)) && y.Eq(bv.Ones(w))) {
			return ExecValue{}, &ErrUndefined{in}
		}
	case OpShl, OpLShr, OpAShr:
		if !y.Ult(bv.New(w, uint64(w))) {
			return ExecValue{}, &ErrUndefined{in}
		}
	}

	var r bv.Vec
	switch in.Op {
	case OpAdd:
		r = x.Add(y)
	case OpSub:
		r = x.Sub(y)
	case OpMul:
		r = x.Mul(y)
	case OpUDiv:
		r = x.Udiv(y)
	case OpSDiv:
		r = x.Sdiv(y)
	case OpURem:
		r = x.Urem(y)
	case OpSRem:
		r = x.Srem(y)
	case OpShl:
		r = x.Shl(y)
	case OpLShr:
		r = x.Lshr(y)
	case OpAShr:
		r = x.Ashr(y)
	case OpAnd:
		r = x.And(y)
	case OpOr:
		r = x.Or(y)
	case OpXor:
		r = x.Xor(y)
	default:
		return ExecValue{}, fmt.Errorf("miniir: cannot interpret %s", in.Op)
	}

	if ir.Wraps(binOpKinds[in.Op], in.Flags, x, y) {
		poison = true
	}
	return ExecValue{V: r, Poison: poison}, nil
}

func evalCond(c ir.CmpCond, x, y bv.Vec) bool {
	switch c {
	case ir.CondEq:
		return x.Eq(y)
	case ir.CondNe:
		return !x.Eq(y)
	case ir.CondUgt:
		return y.Ult(x)
	case ir.CondUge:
		return y.Ule(x)
	case ir.CondUlt:
		return x.Ult(y)
	case ir.CondUle:
		return x.Ule(y)
	case ir.CondSgt:
		return y.Slt(x)
	case ir.CondSge:
		return y.Sle(x)
	case ir.CondSlt:
		return x.Slt(y)
	case ir.CondSle:
		return x.Sle(y)
	}
	return false
}
