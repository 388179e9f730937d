// Package codegen translates verified Alive transformations into C++
// code in the style of LLVM's InstCombine pass (Section 4 of the paper):
// a conjunction of pattern-match clauses using LLVM's m_* matcher library
// plus the precondition, followed by construction of the target template
// and root replacement. The generator follows the paper's structure: one
// match() clause per match step of the transformation's plan
// (ir.CompilePlan), APInt arithmetic for constant expressions, and one
// construction per build step, in which created constants take the
// types of matched or built values.
package codegen

import (
	"fmt"
	"strings"

	"alive/internal/ir"
)

// Generate emits the C++ body (an if-statement, Figure 7) for one
// transformation: the clauses of its match steps, the precondition, and
// the construction of the target. It fails for templates the plan
// rejects, such as memory operations other than load.
func Generate(t *ir.Transform) (string, error) {
	plan, err := ir.CompilePlan(t)
	if err != nil {
		return "", fmt.Errorf("codegen: %w", err)
	}
	g := &generator{
		t:        t,
		plan:     &plan,
		names:    map[ir.Value]string{plan.Match[0].In: "I"},
		declared: map[string]string{}, // name -> C++ type
	}
	return g.run()
}

type generator struct {
	t    *ir.Transform
	plan *ir.Plan

	names     map[ir.Value]string
	declared  map[string]string
	declOrder []string

	clauses   []string
	body      []string
	predCount int
	cstCount  int
	exprCount int
	// bits renders the width of the operand a constant expression being
	// printed sits in, the width its zext, sext and trunc convert to.
	bits string
	err  error
}

func (g *generator) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: %s", fmt.Sprintf(format, args...))
	}
}

// cppName sanitizes an Alive register/constant name into a C++
// identifier.
func cppName(name string) string {
	s := strings.TrimPrefix(name, "%")
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "v" + s
	}
	return s
}

func (g *generator) declare(name, typ string) {
	if _, ok := g.declared[name]; !ok {
		g.declared[name] = typ
		g.declOrder = append(g.declOrder, name)
	}
}

func (g *generator) run() (string, error) {
	// Phase 1: the match steps, from the root.
	g.matchStep(0)

	// Phase 2: the precondition.
	if pre := g.plan.Pre; pre != nil {
		if _, isTrue := pre.(ir.TruePred); !isTrue {
			g.clauses = append(g.clauses, g.pred(pre))
		}
	}

	// Phase 3: build the target.
	g.build()

	if g.err != nil {
		return "", g.err
	}

	var sb strings.Builder
	if g.t.Name != "" {
		fmt.Fprintf(&sb, "// %s\n", g.t.Name)
	}
	for _, line := range strings.Split(strings.TrimRight(g.t.String(), "\n"), "\n") {
		fmt.Fprintf(&sb, "//   %s\n", line)
	}
	sb.WriteString("{\n")
	// Declarations grouped by type.
	byType := map[string][]string{}
	var typeOrder []string
	for _, n := range g.declOrder {
		ty := g.declared[n]
		if len(byType[ty]) == 0 {
			typeOrder = append(typeOrder, ty)
		}
		byType[ty] = append(byType[ty], n)
	}
	for _, ty := range typeOrder {
		// A * binds to one declarator, so each pointer name carries its own.
		if class, ptr := strings.CutSuffix(ty, " *"); ptr {
			fmt.Fprintf(&sb, "  %s *%s;\n", class, strings.Join(byType[ty], ", *"))
		} else {
			fmt.Fprintf(&sb, "  %s %s;\n", ty, strings.Join(byType[ty], ", "))
		}
	}
	sb.WriteString("  if (")
	sb.WriteString(strings.Join(g.clauses, " &&\n      "))
	sb.WriteString(") {\n")
	for _, line := range g.body {
		fmt.Fprintf(&sb, "    %s\n", line)
	}
	sb.WriteString("    return true;\n")
	sb.WriteString("  }\n")
	sb.WriteString("}\n")
	return sb.String(), nil
}

// matchStep emits the clauses of plan step i, whose instruction has a
// C++ name by now: one match() clause as in the paper, the checks of
// its predicate, attributes and written widths, then in operand order
// the steps of the instructions it reaches first and the checks of its
// constant-expression operands, in the order the plan matches them.
func (g *generator) matchStep(i int) {
	s := &g.plan.Match[i]
	holder := g.names[s.In]
	args := make([]string, len(s.Args))
	for j, a := range s.Args {
		args[j] = g.operand(a)
	}
	var matcher, pred string
	switch in := s.In.(type) {
	case *ir.BinOp:
		matcher = "m_" + binOpNames[in.Op]
	case *ir.ICmp:
		p := fmt.Sprintf("P%d", g.predCount)
		g.predCount++
		g.declare(p, "ICmpInst::Predicate")
		matcher, args = "m_ICmp", append([]string{p}, args...)
		pred = fmt.Sprintf("%s == ICmpInst::%s", p, cppPredicate(s.Cond))
	case *ir.Select:
		matcher = "m_Select"
	case *ir.Conv:
		matcher = "m_" + convNames[in.Kind]
	case *ir.Load:
		matcher = "m_Load"
	}
	g.clauses = append(g.clauses, fmt.Sprintf("match(%s, %s(%s))", holder, matcher, strings.Join(args, ", ")))
	if pred != "" {
		g.clauses = append(g.clauses, pred)
	}
	for _, f := range flagMethods {
		if s.Flags&f.flag != 0 {
			g.clauses = append(g.clauses, fmt.Sprintf("cast<BinaryOperator>(%s)->%s()", holder, f.has))
		}
	}
	g.widthCheck(holder, s.Width)
	g.widthCheck(fmt.Sprintf("cast<Instruction>(%s)->getOperand(0)", holder), s.ArgWidth)
	for j, a := range s.Args {
		switch a.Kind {
		case ir.ArgBind:
			g.widthCheck(g.names[a.V], a.Width)
		case ir.ArgLiteral:
			g.widthCheck(fmt.Sprintf("cast<Instruction>(%s)->getOperand(%d)", holder, j), a.Width)
		case ir.ArgInstr:
			g.matchStep(a.Step)
		case ir.ArgConst:
			g.bits = g.names[a.V] + "->getType()->getScalarSizeInBits()"
			g.clauses = append(g.clauses, fmt.Sprintf("%s->getValue() == %s", g.names[a.V], g.apintExpr(a.V)))
			g.bits = ""
		}
	}
}

// operand renders the pattern of one operand. A value is bound by the
// first match() clause that names it and compared by later ones; a
// constant expression binds a constant of its own, which a later clause
// compares with the expression's value.
func (g *generator) operand(a ir.Arg) string {
	switch a.Kind {
	case ir.ArgLiteral:
		switch v := a.V.(*ir.Literal); {
		case v.Bool && v.V != 0, v.V == 1:
			return "m_One()"
		case v.V == 0:
			return "m_Zero()"
		case v.V == -1:
			return "m_AllOnes()"
		default:
			return fmt.Sprintf("m_SpecificInt(%d)", v.V)
		}
	case ir.ArgUndef:
		return "m_Undef()"
	case ir.ArgConst:
		name := fmt.Sprintf("CE%d", g.exprCount)
		g.exprCount++
		g.names[a.V] = name
		g.declare(name, "ConstantInt *")
		return fmt.Sprintf("m_ConstantInt(%s)", name)
	}
	if name, bound := g.names[a.V]; bound {
		return fmt.Sprintf("m_Specific(%s)", name)
	}
	name := cppName(a.V.Name())
	g.names[a.V] = name
	if _, isConst := a.V.(*ir.AbstractConst); isConst {
		g.declare(name, "ConstantInt *")
		return fmt.Sprintf("m_ConstantInt(%s)", name)
	}
	g.declare(name, "Value *")
	return fmt.Sprintf("m_Value(%s)", name)
}

// widthCheck emits the clause that value v has the written width w, if
// one was written: the transformation was only proved at it.
func (g *generator) widthCheck(v string, w int) {
	if w != 0 {
		g.clauses = append(g.clauses, fmt.Sprintf("%s->getType()->isIntegerTy(%d)", v, w))
	}
}

// flagMethods are the BinaryOperator methods that read and set each
// attribute.
var flagMethods = []struct {
	flag     ir.Flags
	has, set string
}{
	{ir.NSW, "hasNoSignedWrap", "setHasNoSignedWrap"},
	{ir.NUW, "hasNoUnsignedWrap", "setHasNoUnsignedWrap"},
	{ir.Exact, "isExact", "setIsExact"},
}

// binOpNames and convNames spell the binary operators and conversions as
// LLVM does: after m_ in a matcher, Create in a constructor, and
// Instruction:: in a cast's opcode.
var (
	binOpNames = map[ir.BinOpKind]string{
		ir.Add: "Add", ir.Sub: "Sub", ir.Mul: "Mul", ir.UDiv: "UDiv", ir.SDiv: "SDiv",
		ir.URem: "URem", ir.SRem: "SRem", ir.Shl: "Shl", ir.LShr: "LShr", ir.AShr: "AShr",
		ir.And: "And", ir.Or: "Or", ir.Xor: "Xor",
	}
	convNames = map[ir.ConvKind]string{
		ir.ZExt: "ZExt", ir.SExt: "SExt", ir.Trunc: "Trunc",
		ir.BitCast: "BitCast", ir.PtrToInt: "PtrToInt", ir.IntToPtr: "IntToPtr",
	}
)

func cppPredicate(c ir.CmpCond) string {
	return "ICMP_" + strings.ToUpper(c.String())
}
