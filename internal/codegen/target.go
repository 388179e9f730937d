package codegen

import (
	"fmt"
	"strings"

	"alive/internal/ir"
)

// buildTarget emits the body: constant materialization, new instructions
// bottom-up (textual order is already topological in SSA), and the root
// replacement.
func (g *generator) buildTarget() {
	rootTgt := g.t.TargetValue(g.t.Root)
	for _, in := range g.t.Target {
		switch in := in.(type) {
		case *ir.Copy:
			if in.VName == g.t.Root {
				val := g.cppValue(in.X, "I->getType()")
				g.body = append(g.body, fmt.Sprintf("I->replaceAllUsesWith(%s);", val))
			} else {
				// A named alias: bind a local.
				name := cppName(in.VName)
				g.names[in] = name
				g.body = append(g.body, fmt.Sprintf("Value *%s = %s;", name, g.cppValue(in.X, "I->getType()")))
			}
		case *ir.BinOp:
			g.buildBinOp(in)
		case *ir.ICmp:
			g.buildICmp(in)
		case *ir.Select:
			g.buildSelect(in)
		case *ir.Conv:
			g.buildConv(in)
		default:
			g.fail("cannot construct %T in target", in)
			return
		}
	}
	if _, isCopy := rootTgt.(*ir.Copy); !isCopy && rootTgt != nil {
		g.body = append(g.body, fmt.Sprintf("I->replaceAllUsesWith(%s);", g.names[rootTgt.(ir.Value)]))
	}
}

func (g *generator) buildBinOp(in *ir.BinOp) {
	name := g.defineName(in)
	ty := g.operandTypeHint(in)
	x := g.cppValue(in.X, ty)
	y := g.cppValue(in.Y, ty)
	g.body = append(g.body, fmt.Sprintf("BinaryOperator *%s = BinaryOperator::Create%s(%s, %s, \"\", I);",
		name, binOpNames[in.Op], x, y))
	if in.Flags&ir.NSW != 0 {
		g.body = append(g.body, fmt.Sprintf("%s->setHasNoSignedWrap(true);", name))
	}
	if in.Flags&ir.NUW != 0 {
		g.body = append(g.body, fmt.Sprintf("%s->setHasNoUnsignedWrap(true);", name))
	}
	if in.Flags&ir.Exact != 0 {
		g.body = append(g.body, fmt.Sprintf("%s->setIsExact(true);", name))
	}
}

func (g *generator) buildICmp(in *ir.ICmp) {
	name := g.defineName(in)
	ty := g.operandTypeHint(in)
	g.body = append(g.body, fmt.Sprintf("ICmpInst *%s = new ICmpInst(I, ICmpInst::%s, %s, %s);",
		name, cppPredicate(in.Cond), g.cppValue(in.X, ty), g.cppValue(in.Y, ty)))
}

func (g *generator) buildSelect(in *ir.Select) {
	name := g.defineName(in)
	ty := g.operandTypeHint(in)
	g.body = append(g.body, fmt.Sprintf("SelectInst *%s = SelectInst::Create(%s, %s, %s, \"\", I);",
		name, g.cppValue(in.Cond, "Type::getInt1Ty(I->getContext())"),
		g.cppValue(in.TrueV, ty), g.cppValue(in.FalseV, ty)))
}

func (g *generator) buildConv(in *ir.Conv) {
	name := g.defineName(in)
	destTy := "I->getType()"
	if in.ToType != nil {
		if it, ok := in.ToType.(ir.IntType); ok {
			destTy = fmt.Sprintf("Type::getIntNTy(I->getContext(), %d)", it.Bits)
		}
	}
	g.body = append(g.body, fmt.Sprintf("CastInst *%s = CastInst::Create(Instruction::%s, %s, %s, \"\", I);",
		name, convNames[in.Kind], g.cppValue(in.X, "I->getType()"), destTy))
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

// operandTypeHint picks a C++ expression for the type of an
// instruction's operands: an operand already bound from the source if
// any, else the root type.
func (g *generator) operandTypeHint(in ir.Instr) string {
	for _, opnd := range ir.Operands(in) {
		if name, ok := g.names[opnd]; ok && name != "" {
			switch opnd.(type) {
			case *ir.Input, ir.Instr:
				return name + "->getType()"
			case *ir.AbstractConst:
				return name + "->getType()"
			}
		}
	}
	return "I->getType()"
}

// cppValue renders an operand reference in the target body, materializing
// constant expressions as APInt computations (paper: "Constant
// expressions translate to APInt or Constant values").
func (g *generator) cppValue(v ir.Value, typeHint string) string {
	if name, ok := g.names[v]; ok {
		return name
	}
	switch v := v.(type) {
	case *ir.Literal:
		if v.Bool {
			if v.V != 0 {
				return "ConstantInt::getTrue(I->getContext())"
			}
			return "ConstantInt::getFalse(I->getContext())"
		}
		return fmt.Sprintf("ConstantInt::get(%s, %d)", typeHint, v.V)
	case *ir.UndefValue:
		return fmt.Sprintf("UndefValue::get(%s)", typeHint)
	case *ir.ConstUnExpr, *ir.ConstBinExpr, *ir.ConstFunc:
		// Materialize a fresh constant, as C3 in Figure 7.
		g.cstCount++
		name := fmt.Sprintf("C%d_new", g.cstCount)
		g.body = append(g.body,
			fmt.Sprintf("APInt %s_val = %s;", name, g.apintExpr(v)),
			fmt.Sprintf("Constant *%s = ConstantInt::get(%s, %s_val);", name, typeHint, name))
		g.names[v] = name
		return name
	}
	g.fail("cannot reference %s in target", v)
	return ""
}

// apintExpr renders a constant expression over APInt values.
func (g *generator) apintExpr(v ir.Value) string {
	switch v := v.(type) {
	case *ir.AbstractConst:
		if name, ok := g.names[v]; ok {
			return name + "->getValue()"
		}
		g.fail("constant %s is not bound by the source pattern", v.CName)
		return ""
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
	case "zext":
		return arg(0) + ".zext(I->getType()->getScalarSizeInBits())"
	case "sext":
		return arg(0) + ".sext(I->getType()->getScalarSizeInBits())"
	case "trunc":
		return arg(0) + ".trunc(I->getType()->getScalarSizeInBits())"
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
