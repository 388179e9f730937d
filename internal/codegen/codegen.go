// Package codegen translates verified Alive transformations into C++
// code in the style of LLVM's InstCombine pass (Section 4 of the paper):
// a conjunction of pattern-match clauses using LLVM's m_* matcher library
// plus the precondition, followed by construction of the target template
// and root replacement. The generator follows the paper's structure: one
// match() clause per source instruction, APInt arithmetic for constant
// expressions, and unification-derived types for created constants.
package codegen

import (
	"fmt"
	"strings"

	"alive/internal/ir"
)

// Generate emits the C++ body (an if-statement, Figure 7) for one
// transformation. It fails for constructs the LLVM pattern-match library
// cannot express (memory operations other than load).
func Generate(t *ir.Transform) (string, error) {
	g := &generator{
		t:        t,
		names:    map[ir.Value]string{},
		declared: map[string]string{}, // name -> C++ type
	}
	return g.run()
}

type generator struct {
	t *ir.Transform

	names     map[ir.Value]string
	declared  map[string]string
	declOrder []string

	clauses   []string
	body      []string
	predCount int
	cstCount  int
	err       error
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
	root := g.t.SourceValue(g.t.Root)
	if root == nil {
		g.fail("transformations without a value root are not supported")
		return "", g.err
	}
	g.names[root] = "I"

	// Phase 1: match the source template top-down from the root.
	g.matchInstr("I", root)

	// Phase 2: the precondition.
	if g.t.Pre != nil {
		if _, isTrue := g.t.Pre.(ir.TruePred); !isTrue {
			g.clauses = append(g.clauses, g.pred(g.t.Pre))
		}
	}

	// Phase 3: build the target.
	g.buildTarget()

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

// matchInstr emits the clause matching instruction in bound to cpp
// variable holder, then recurses into instruction operands. Source
// instructions are matched in a fixed order (operands left-to-right,
// depth-first), each in its own clause as in the paper.
func (g *generator) matchInstr(holder string, in ir.Instr) {
	pat, post, subs := g.pattern(in)
	g.clauses = append(g.clauses, fmt.Sprintf("match(%s, %s)", holder, pat))
	g.clauses = append(g.clauses, post...)
	g.flagChecks(holder, in)
	for _, s := range subs {
		g.matchInstr(s.name, s.instr)
	}
}

type subMatch struct {
	name  string
	instr ir.Instr
}

// pattern builds the m_* pattern for one instruction. It returns the
// pattern, clauses that must follow the match (predicate equality
// checks), and the operand instructions that need their own match clause.
func (g *generator) pattern(in ir.Instr) (pat string, post []string, subs []*subMatch) {
	op := func(v ir.Value) string { return g.operandPattern(v, &subs) }
	switch in := in.(type) {
	case *ir.BinOp:
		return fmt.Sprintf("%s(%s, %s)", matcherName(in.Op), op(in.X), op(in.Y)), nil, subs
	case *ir.ICmp:
		p := fmt.Sprintf("P%d", g.predCount)
		g.predCount++
		g.declare(p, "ICmpInst::Predicate")
		pat := fmt.Sprintf("m_ICmp(%s, %s, %s)", p, op(in.X), op(in.Y))
		return pat, []string{fmt.Sprintf("%s == ICmpInst::%s", p, cppPredicate(in.Cond))}, subs
	case *ir.Select:
		return fmt.Sprintf("m_Select(%s, %s, %s)", op(in.Cond), op(in.TrueV), op(in.FalseV)), nil, subs
	case *ir.Conv:
		return fmt.Sprintf("%s(%s)", convMatcher(in.Kind), op(in.X)), nil, subs
	case *ir.Load:
		return fmt.Sprintf("m_Load(%s)", op(in.Ptr)), nil, subs
	case *ir.Copy:
		g.fail("copy instructions cannot appear in the source template")
		return "", nil, subs
	default:
		g.fail("%T has no LLVM matcher", in)
		return "", nil, subs
	}
}

// operandPattern renders one operand inside a pattern.
func (g *generator) operandPattern(v ir.Value, subs *[]*subMatch) string {
	if name, bound := g.names[v]; bound {
		// Repeated use of an already-bound value.
		return fmt.Sprintf("m_Specific(%s)", name)
	}
	switch v := v.(type) {
	case *ir.Input:
		name := cppName(v.VName)
		g.names[v] = name
		g.declare(name, "Value *")
		return fmt.Sprintf("m_Value(%s)", name)
	case *ir.AbstractConst:
		name := cppName(v.CName)
		g.names[v] = name
		g.declare(name, "ConstantInt *")
		return fmt.Sprintf("m_ConstantInt(%s)", name)
	case *ir.Literal:
		switch {
		case v.Bool && v.V != 0:
			return "m_One()"
		case v.V == 0:
			return "m_Zero()"
		case v.V == 1:
			return "m_One()"
		case v.V == -1:
			return "m_AllOnes()"
		default:
			return fmt.Sprintf("m_SpecificInt(%d)", v.V)
		}
	case *ir.UndefValue:
		return "m_Undef()"
	case ir.Instr:
		name := cppName(v.Name())
		g.names[v] = name
		g.declare(name, "Value *")
		*subs = append(*subs, &subMatch{name: name, instr: v})
		return fmt.Sprintf("m_Value(%s)", name)
	}
	g.fail("cannot match operand %s", v)
	return ""
}

// flagChecks emits hasNoSignedWrap()/… clauses for source attributes.
func (g *generator) flagChecks(holder string, in ir.Instr) {
	bo, ok := in.(*ir.BinOp)
	if !ok {
		return
	}
	cast := holder
	if holder != "I" {
		cast = fmt.Sprintf("cast<BinaryOperator>(%s)", holder)
	} else {
		cast = "cast<BinaryOperator>(I)"
	}
	if bo.Flags&ir.NSW != 0 {
		g.clauses = append(g.clauses, cast+"->hasNoSignedWrap()")
	}
	if bo.Flags&ir.NUW != 0 {
		g.clauses = append(g.clauses, cast+"->hasNoUnsignedWrap()")
	}
	if bo.Flags&ir.Exact != 0 {
		g.clauses = append(g.clauses, cast+"->isExact()")
	}
}

func matcherName(op ir.BinOpKind) string {
	switch op {
	case ir.Add:
		return "m_Add"
	case ir.Sub:
		return "m_Sub"
	case ir.Mul:
		return "m_Mul"
	case ir.UDiv:
		return "m_UDiv"
	case ir.SDiv:
		return "m_SDiv"
	case ir.URem:
		return "m_URem"
	case ir.SRem:
		return "m_SRem"
	case ir.Shl:
		return "m_Shl"
	case ir.LShr:
		return "m_LShr"
	case ir.AShr:
		return "m_AShr"
	case ir.And:
		return "m_And"
	case ir.Or:
		return "m_Or"
	case ir.Xor:
		return "m_Xor"
	}
	return "m_Unknown"
}

func convMatcher(k ir.ConvKind) string {
	switch k {
	case ir.ZExt:
		return "m_ZExt"
	case ir.SExt:
		return "m_SExt"
	case ir.Trunc:
		return "m_Trunc"
	case ir.BitCast:
		return "m_BitCast"
	case ir.PtrToInt:
		return "m_PtrToInt"
	case ir.IntToPtr:
		return "m_IntToPtr"
	}
	return "m_UnknownCast"
}

func cppPredicate(c ir.CmpCond) string {
	return "ICMP_" + strings.ToUpper(c.String())
}

func cppCreateName(op ir.BinOpKind) string {
	switch op {
	case ir.Add:
		return "CreateAdd"
	case ir.Sub:
		return "CreateSub"
	case ir.Mul:
		return "CreateMul"
	case ir.UDiv:
		return "CreateUDiv"
	case ir.SDiv:
		return "CreateSDiv"
	case ir.URem:
		return "CreateURem"
	case ir.SRem:
		return "CreateSRem"
	case ir.Shl:
		return "CreateShl"
	case ir.LShr:
		return "CreateLShr"
	case ir.AShr:
		return "CreateAShr"
	case ir.And:
		return "CreateAnd"
	case ir.Or:
		return "CreateOr"
	case ir.Xor:
		return "CreateXor"
	}
	return "CreateUnknown"
}
