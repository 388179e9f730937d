package codegen

import (
	"strings"
	"testing"

	"alive/internal/parser"
)

func gen(t *testing.T, src string) string {
	t.Helper()
	tr, err := parser.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := Generate(tr)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return out
}

func mustContain(t *testing.T, out string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(out, n) {
			t.Errorf("generated code missing %q:\n%s", n, out)
		}
	}
}

// TestFigure7 reproduces the paper's Figure 7 example.
func TestFigure7(t *testing.T) {
	out := gen(t, `
Pre: isSignBit(C1)
%b = xor %a, C1
%d = add %b, C2
=>
%d = add %a, C1 ^ C2
`)
	mustContain(t, out,
		"\n  Value *b, *a;\n",
		"\n  ConstantInt *C2, *C1;\n",
		"match(I, m_Add(m_Value(b), m_ConstantInt(C2)))",
		"match(b, m_Xor(m_Value(a), m_ConstantInt(C1)))",
		"C1->getValue().isSignMask()",
		"C1->getValue() ^ C2->getValue()",
		"ConstantInt::get(",
		"BinaryOperator::CreateAdd(a, C1_new",
		"I->replaceAllUsesWith(",
	)
}

func TestIntroExample(t *testing.T) {
	out := gen(t, `
%1 = xor %x, -1
%2 = add %1, C
=>
%2 = sub C-1, %x
`)
	mustContain(t, out,
		"match(I, m_Add(m_Value(v1), m_ConstantInt(C)))",
		"match(v1, m_Xor(m_Value(x), m_AllOnes()))",
		"C->getValue() - 1",
		"BinaryOperator::CreateSub(",
	)
}

func TestSourceFlagChecks(t *testing.T) {
	out := gen(t, `
%r = add nsw nuw %x, %y
=>
%r = add nsw %y, %x
`)
	mustContain(t, out,
		"cast<BinaryOperator>(I)->hasNoSignedWrap()",
		"cast<BinaryOperator>(I)->hasNoUnsignedWrap()",
		"setHasNoSignedWrap(true)",
	)
	if strings.Contains(out, "r_new->setHasNoUnsignedWrap") {
		t.Error("target must not gain nuw")
	}
}

func TestExactFlag(t *testing.T) {
	out := gen(t, `
%r = udiv exact %x, C
=>
%r = udiv exact %x, C
`)
	mustContain(t, out, "->isExact()", "setIsExact(true)")
}

func TestICmpPredicate(t *testing.T) {
	out := gen(t, `
%1 = add nsw %x, 1
%2 = icmp sgt %1, %x
=>
%2 = true
`)
	mustContain(t, out,
		"ICmpInst::Predicate P0;",
		"m_ICmp(P0, m_Value(v1), m_Value(x))",
		"P0 == ICmpInst::ICMP_SGT",
		"hasNoSignedWrap()",
		"I->replaceAllUsesWith(ConstantInt::getTrue(I->getContext()));",
	)
	// The predicate check must come after the icmp match.
	mi := strings.Index(out, "m_ICmp")
	pi := strings.Index(out, "P0 == ICmpInst")
	if pi < mi {
		t.Error("predicate equality must follow the match clause")
	}
}

func TestRepeatedOperandUsesSpecific(t *testing.T) {
	out := gen(t, `
%r = and %x, %x
=>
%r = %x
`)
	mustContain(t, out, "m_And(m_Value(x), m_Specific(x))")
}

func TestSelectAndUndef(t *testing.T) {
	out := gen(t, `
%r = select %c, %x, undef
=>
%r = %x
`)
	mustContain(t, out, "m_Select(m_Value(c), m_Value(x), m_Undef())")
}

func TestConstantFunctions(t *testing.T) {
	out := gen(t, `
Pre: isPowerOf2(C1)
%r = mul %x, C1
=>
%r = shl %x, log2(C1)
`)
	mustContain(t, out,
		"C1->getValue().isPowerOf2()",
		"logBase2()",
		"BinaryOperator::CreateShl(",
	)
	// trunc(C) converts to the width of the operand it sits in, %x's
	// i8, not to the i16 of I.
	out = gen(t, `
%z = zext %x to i16
%r = and %z, C
=>
%a = and %x, trunc(C)
%r = zext %a to i16
`)
	mustContain(t, out,
		"APInt C1_new_val = C->getValue().trunc(x->getType()->getScalarSizeInBits());",
		"Constant *C1_new = ConstantInt::get(x->getType(), C1_new_val);",
	)
}

func TestPreconditionOperators(t *testing.T) {
	out := gen(t, `
Pre: C2 % (1<<C1) == 0 && C1 u>= C2
%s = shl nsw %X, C1
%r = sdiv %s, C2
=>
%r = sdiv %X, C2/(1<<C1)
`)
	mustContain(t, out,
		".srem(",
		".uge(",
		".sdiv(",
	)
}

func TestMustAnalysisPredicates(t *testing.T) {
	out := gen(t, `
Pre: isPowerOf2(%P) && hasOneUse(%P)
%r = udiv %x, %P
=>
%r = udiv exact %x, %P
`)
	mustContain(t, out,
		"isKnownToBeAPowerOfTwo(P)",
		"P->hasOneUse()",
	)
}

func TestMaskedValueIsZero(t *testing.T) {
	out := gen(t, `
Pre: MaskedValueIsZero(%V, ~C1)
%r = and %V, C1
=>
%r = and %V, C1
`)
	mustContain(t, out, "MaskedValueIsZero(V, ~C1->getValue())")
}

func TestConversionTarget(t *testing.T) {
	out := gen(t, `
%t = zext i8 %x to i16
%r = add %t, %t
=>
%s = shl i8 %x, 1
%r = zext i8 %s to i16
`)
	mustContain(t, out,
		"match(I, m_Add(m_Value(t), m_Specific(t)))",
		"match(t, m_ZExt(m_Value(x)))",
		"CastInst::Create(Instruction::ZExt",
	)
}

func TestTargetRedefinitionNaming(t *testing.T) {
	out := gen(t, `
%s = shl %Power, %A
%Y = lshr %s, %B
%r = udiv %X, %Y
=>
%sub = sub %A, %B
%Y = shl %Power, %sub
%r = udiv %X, %Y
`)
	// The target %Y must get a fresh C++ name distinct from the matched
	// binding, and the final udiv must use it.
	mustContain(t, out, "BinaryOperator *Y_new", "BinaryOperator::CreateUDiv(X, Y_new")
}

func TestUnsupportedMemoryRejected(t *testing.T) {
	tr, err := parser.ParseOne(`
%p = alloca i8, 1
store %v, %p
%x = load %p
=>
%x = %v
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(tr); err == nil {
		t.Fatal("alloca-rooted patterns have no matcher and must be rejected")
	}
}

func TestGeneratePass(t *testing.T) {
	srcs := `
Name: one
%r = add %x, 0
=>
%r = %x

Name: two
%p = alloca i8, 1
store %v, %p
%r = load %p
=>
%r = %v
`
	ts, err := parser.Parse(srcs)
	if err != nil {
		t.Fatal(err)
	}
	cpp, skipped := GeneratePass("TestPass", ts)
	if len(skipped) != 1 || !strings.Contains(skipped[0], "two") {
		t.Fatalf("expected 'two' to be skipped, got %v", skipped)
	}
	mustContain(t, cpp,
		"#include \"llvm/IR/PatternMatch.h\"",
		"bool runOnInstruction(Instruction *I)",
		"// one",
		"return false;",
	)
}

func TestDeterministicOutput(t *testing.T) {
	src := `
Pre: isSignBit(C1)
%b = xor %a, C1
%d = add %b, C2
=>
%d = add %a, C1 ^ C2
`
	a := gen(t, src)
	b := gen(t, src)
	if a != b {
		t.Fatal("generation must be deterministic")
	}
}

func TestSelectTarget(t *testing.T) {
	out := gen(t, `
%z = zext i1 %b to i8
%r = add i8 %x, %z
=>
%1 = add i8 %x, 1
%r = select %b, i8 %1, %x
`)
	mustContain(t, out,
		"match(I, m_Add(m_Value(x), m_Value(z)))",
		"match(z, m_ZExt(m_Value(b)))",
		"SelectInst *r_new = SelectInst::Create(b, v1, x",
		"BinaryOperator *v1 = BinaryOperator::CreateAdd(x, ConstantInt::get(",
	)
}

func TestICmpTarget(t *testing.T) {
	out := gen(t, `
%c = icmp sgt %x, %y
%r = select %c, %x, %y
=>
%c2 = icmp slt %y, %x
%r = select %c2, %x, %y
`)
	mustContain(t, out,
		"ICmpInst *c2 = new ICmpInst(I, ICmpInst::ICMP_SLT, y, x);",
		"SelectInst *r_new = SelectInst::Create(c2, x, y",
	)
}

func TestWidthFunctionInPre(t *testing.T) {
	out := gen(t, `
Pre: C u< width(%x)
%1 = shl %x, C
%r = lshr %1, C
=>
%m = lshr -1, C
%r = and %x, %m
`)
	mustContain(t, out, "getType()->getScalarSizeInBits()")
}

func TestConstantTrueFalseTargets(t *testing.T) {
	out := gen(t, `
%c1 = icmp eq %x, %y
%c2 = icmp ne %x, %y
%r = and %c1, %c2
=>
%r = false
`)
	mustContain(t, out, "I->replaceAllUsesWith(ConstantInt::getFalse(I->getContext()));")
}

func TestNegatedConstExpr(t *testing.T) {
	out := gen(t, `
%a = sdiv %X, C
%r = sub 0, %a
=>
%r = sdiv %X, -C
`)
	mustContain(t, out, "-C->getValue()")
}

func TestLiteralRootTarget(t *testing.T) {
	out := gen(t, `
%r = xor %x, %x
=>
%r = 0
`)
	mustContain(t, out, "I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));")
}

// TestUndefTarget: an undef select arm has the other arm's type.
func TestUndefTarget(t *testing.T) {
	out := gen(t, `
Pre: C u>= width(%x)
%s = shl %x, C
%r = select %c, %s, %y
=>
%r = select %c, undef, %y
`)
	mustContain(t, out, "SelectInst::Create(c, UndefValue::get(y->getType()), y, \"\", I);")
}

func TestWillNotOverflowPredicates(t *testing.T) {
	out := gen(t, `
Pre: WillNotOverflowSignedMul(C1, C2) && C1 != 0 && C2 != 0
%Op0 = sdiv %X, C1
%r = sdiv %Op0, C2
=>
%r = sdiv %X, C1*C2
`)
	mustContain(t, out, "smul_ov")
}
