package codegen

import (
	"fmt"
	"strings"

	"alive/internal/ir"
)

// build emits the body: the plan's build steps in order, each after the
// constants it creates, then the replacement of the root.
func (g *generator) build() {
	for i := range g.plan.Build {
		s := &g.plan.Build[i]
		args := make([]string, len(s.Args))
		for j, a := range s.Args {
			args[j] = g.value(a, s.Like)
		}
		name := g.defineName(s.In)
		switch in := s.In.(type) {
		case *ir.BinOp:
			g.emit("BinaryOperator *%s = BinaryOperator::Create%s(%s, %s, \"\", I);", name, binOpNames[in.Op], args[0], args[1])
			for _, f := range flagMethods {
				if s.Flags&f.flag != 0 {
					g.emit("%s->%s(true);", name, f.set)
				}
			}
		case *ir.ICmp:
			g.emit("ICmpInst *%s = new ICmpInst(I, ICmpInst::%s, %s, %s);", name, cppPredicate(s.Cond), args[0], args[1])
		case *ir.Select:
			g.emit("SelectInst *%s = SelectInst::Create(%s, %s, %s, \"\", I);", name, args[0], args[1], args[2])
		case *ir.Conv:
			g.emit("CastInst *%s = CastInst::Create(Instruction::%s, %s, %s, \"\", I);", name, convNames[in.Kind], args[0], g.typeOf(s.Width, s.Like))
		}
	}
	g.emit("I->replaceAllUsesWith(%s);", g.value(g.plan.Root, g.plan.Match[0].In))
}

func (g *generator) emit(format string, args ...any) {
	g.body = append(g.body, fmt.Sprintf(format, args...))
}

func (g *generator) defineName(in ir.Instr) string {
	name := cppName(in.Name())
	if name == cppName(g.t.Root) || in.Name() == g.t.Root {
		name = cppName(in.Name()) + "_new"
	}
	// Target redefinitions of source temporaries shadow the matched
	// binding.
	if _, taken := g.declared[name]; taken {
		name += "_new"
	}
	g.names[in] = name
	return name
}

// typeOf renders the type of a value bits wide, or if bits is 0 of the
// type of the value like.
func (g *generator) typeOf(bits int, like ir.Value) string {
	if bits != 0 {
		return fmt.Sprintf("Type::getIntNTy(I->getContext(), %d)", bits)
	}
	return g.names[like] + "->getType()"
}

// value renders an operand of a build step, or the root's replacement.
// A value the rewrite creates has the type of like unless a fixes its
// width, and a constant expression is materialized as an APInt
// computation first (paper: "Constant expressions translate to APInt or
// Constant values").
func (g *generator) value(a ir.Arg, like ir.Value) string {
	if !a.Created() {
		return g.names[a.V]
	}
	ty := g.typeOf(a.Width, like)
	switch v := a.V.(type) {
	case *ir.Literal:
		switch {
		case !v.Bool:
			return fmt.Sprintf("ConstantInt::get(%s, %d)", ty, v.V)
		case v.V != 0:
			return "ConstantInt::getTrue(I->getContext())"
		}
		return "ConstantInt::getFalse(I->getContext())"
	case *ir.UndefValue:
		return fmt.Sprintf("UndefValue::get(%s)", ty)
	}
	// As C3 in Figure 7. Its conversions convert to its own width.
	g.bits = ty + "->getScalarSizeInBits()"
	g.cstCount++
	name := fmt.Sprintf("C%d_new", g.cstCount)
	g.emit("APInt %s_val = %s;", name, g.apintExpr(a.V))
	g.emit("Constant *%s = ConstantInt::get(%s, %s_val);", name, ty, name)
	g.bits = ""
	return name
}

// apintExpr renders a constant expression over APInt values.
func (g *generator) apintExpr(v ir.Value) string {
	switch v := v.(type) {
	case *ir.AbstractConst:
		return g.names[v] + "->getValue()"
	case *ir.Literal:
		return fmt.Sprintf("%d", v.V)
	case *ir.ConstUnExpr:
		if v.Op == ir.CNeg {
			return "-" + g.apintParen(v.X)
		}
		return "~" + g.apintParen(v.X)
	case *ir.ConstBinExpr:
		x, y := g.apintParen(v.X), g.apintParen(v.Y)
		method, ok := apintMethods[v.Op]
		if !ok {
			return x + " " + v.Op.String() + " " + y
		}
		if lit, ok := v.X.(*ir.Literal); ok {
			// The receiver is an APInt of the expression's width, which
			// both operands share.
			if _, ok := v.Y.(*ir.Literal); ok {
				g.fail("%s has no width", v)
			}
			x = fmt.Sprintf("APInt(%s.getBitWidth(), %d, true)", y, lit.V)
		}
		return x + "." + method + "(" + g.apintExpr(v.Y) + ")"
	case *ir.ConstFunc:
		return g.apintFunc(v)
	case *ir.Input:
		g.fail("register %s cannot appear in a constant expression", v.VName)
		return ""
	}
	g.fail("cannot render %s as APInt", v)
	return ""
}

// apintMethods spell the constant operators C++ has no operator for;
// the others are spelt as in Alive.
var apintMethods = map[ir.ConstBinOp]string{
	ir.CSDiv: "sdiv", ir.CUDiv: "udiv", ir.CSRem: "srem", ir.CURem: "urem",
	ir.CShl: "shl", ir.CAShr: "ashr", ir.CLShr: "lshr",
}

func (g *generator) apintParen(v ir.Value) string {
	s := g.apintExpr(v)
	switch v.(type) {
	case *ir.ConstBinExpr:
		return "(" + s + ")"
	}
	return s
}

func (g *generator) apintFunc(v *ir.ConstFunc) string {
	arg := func(i int) string { return g.apintExpr(v.Args[i]) }
	switch v.FName {
	case "log2":
		return fmt.Sprintf("APInt(%s.getBitWidth(), %s.logBase2())", arg(0), arg(0))
	case "width":
		// An APInt of the argument's width: the corpus compares width(%x)
		// with shift amounts of %x, and APInt operands must agree in width.
		var w string
		if in, ok := v.Args[0].(*ir.Input); ok {
			w = g.names[in] + "->getType()->getScalarSizeInBits()"
		} else {
			w = arg(0) + ".getBitWidth()"
		}
		return fmt.Sprintf("APInt(%s, %s)", w, w)
	case "abs":
		return arg(0) + ".abs()"
	case "umax":
		return fmt.Sprintf("APIntOps::umax(%s, %s)", arg(0), arg(1))
	case "umin":
		return fmt.Sprintf("APIntOps::umin(%s, %s)", arg(0), arg(1))
	case "smax", "max":
		return fmt.Sprintf("APIntOps::smax(%s, %s)", arg(0), arg(1))
	case "smin", "min":
		return fmt.Sprintf("APIntOps::smin(%s, %s)", arg(0), arg(1))
	case "cttz", "countTrailingZeros":
		return fmt.Sprintf("APInt(%s.getBitWidth(), %s.countTrailingZeros())", arg(0), arg(0))
	case "ctlz", "countLeadingZeros":
		return fmt.Sprintf("APInt(%s.getBitWidth(), %s.countLeadingZeros())", arg(0), arg(0))
	case "zext", "sext", "trunc":
		if g.bits == "" {
			g.fail("%s has no operand to take its width from", v)
		}
		return fmt.Sprintf("%s.%s(%s)", arg(0), v.FName, g.bits)
	}
	g.fail("unknown constant function %q", v.FName)
	return ""
}

// overflowOps are the APInt operations that decide the WillNotOverflow
// predicates on constants.
var overflowOps = map[string]string{
	"WillNotOverflowSignedAdd": "sadd_ov", "WillNotOverflowUnsignedAdd": "uadd_ov",
	"WillNotOverflowSignedSub": "ssub_ov", "WillNotOverflowUnsignedSub": "usub_ov",
	"WillNotOverflowSignedMul": "smul_ov", "WillNotOverflowUnsignedMul": "umul_ov",
	"WillNotOverflowSignedShl": "sshl_ov", "WillNotOverflowUnsignedShl": "ushl_ov",
}

// pred renders a precondition clause.
func (g *generator) pred(p ir.Pred) string {
	switch q := p.(type) {
	case ir.TruePred:
		return "true"
	case *ir.NotPred:
		return "!(" + g.pred(q.P) + ")"
	case *ir.AndPred:
		parts := make([]string, len(q.Ps))
		for i, r := range q.Ps {
			parts[i] = g.pred(r)
		}
		return strings.Join(parts, " && ")
	case *ir.OrPred:
		parts := make([]string, len(q.Ps))
		for i, r := range q.Ps {
			parts[i] = "(" + g.pred(r) + ")"
		}
		return strings.Join(parts, " || ")
	case *ir.CmpPred:
		return g.cmpPred(q)
	case *ir.FuncPred:
		return g.funcPred(q)
	}
	g.fail("cannot render precondition %T", p)
	return "false"
}

func (g *generator) cmpPred(q *ir.CmpPred) string {
	x := g.apintParen(q.X)
	y := g.apintExpr(q.Y)
	switch q.Op {
	case ir.PEq:
		return x + " == " + y
	case ir.PNe:
		return x + " != " + y
	case ir.PSlt:
		return x + ".slt(" + y + ")"
	case ir.PSle:
		return x + ".sle(" + y + ")"
	case ir.PSgt:
		return x + ".sgt(" + y + ")"
	case ir.PSge:
		return x + ".sge(" + y + ")"
	case ir.PUlt:
		return x + ".ult(" + y + ")"
	case ir.PUle:
		return x + ".ule(" + y + ")"
	case ir.PUgt:
		return x + ".ugt(" + y + ")"
	case ir.PUge:
		return x + ".uge(" + y + ")"
	}
	g.fail("unknown comparison")
	return "false"
}

func (g *generator) funcPred(q *ir.FuncPred) string {
	valueArg := func(i int) string {
		switch a := q.Args[i].(type) {
		case *ir.Input:
			return g.names[a]
		case ir.Instr:
			return g.names[a]
		default:
			return g.apintExpr(q.Args[i])
		}
	}
	allConst := true
	for _, a := range q.Args {
		if !ir.IsConstValue(a) {
			allConst = false
		}
	}
	if op, ok := overflowOps[q.FName]; ok {
		if allConst {
			// Precise on constants: probe the overflow flag of APInt's
			// checked operation.
			x, y := g.apintParen(q.Args[0]), g.apintExpr(q.Args[1])
			return fmt.Sprintf("[&] { bool Ov; %s.%s(%s, Ov); return !Ov; }()", x, op, y)
		}
		return fmt.Sprintf("%s(%s, %s, *I)", q.FName, valueArg(0), valueArg(1))
	}
	switch q.FName {
	case "isPowerOf2":
		if allConst {
			return g.apintParen(q.Args[0]) + ".isPowerOf2()"
		}
		return fmt.Sprintf("isKnownToBeAPowerOfTwo(%s)", valueArg(0))
	case "isPowerOf2OrZero":
		if allConst {
			x := g.apintParen(q.Args[0])
			return fmt.Sprintf("(%s.isPowerOf2() || %s == 0)", x, x)
		}
		return fmt.Sprintf("isKnownToBeAPowerOfTwo(%s, /*OrZero=*/true)", valueArg(0))
	case "isSignBit":
		return g.apintParen(q.Args[0]) + ".isSignMask()"
	case "isShiftedMask":
		return g.apintParen(q.Args[0]) + ".isShiftedMask()"
	case "MaskedValueIsZero":
		return fmt.Sprintf("MaskedValueIsZero(%s, %s)", valueArg(0), g.apintExpr(q.Args[1]))
	case "hasOneUse", "OneUse":
		return valueArg(0) + "->hasOneUse()"
	}
	g.fail("unknown predicate %q", q.FName)
	return "false"
}
