package codegen

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"alive/internal/ir"
	"alive/internal/parser"
	"alive/internal/suite"
)

func corpus(t *testing.T) []*ir.Transform {
	t.Helper()
	var ts []*ir.Transform
	for _, e := range suite.All() {
		ts = append(ts, e.Parse())
	}
	return ts
}

// prelude declares the InstCombine analyses the generated preconditions
// call, which a stand-alone file lacks.
const prelude = `#include "llvm/IR/Instruction.h"

using llvm::APInt;
using llvm::Instruction;
using llvm::Value;

bool MaskedValueIsZero(const Value *V, const APInt &Mask);
bool isKnownToBeAPowerOfTwo(const Value *V, bool OrZero = false);
bool WillNotOverflowSignedAdd(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowUnsignedAdd(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowSignedSub(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowUnsignedSub(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowSignedMul(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowUnsignedMul(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowSignedShl(const Value *L, const Value *R, const Instruction &I);
bool WillNotOverflowUnsignedShl(const Value *L, const Value *R, const Instruction &I);

`

// TestGeneratedPassCompiles syntax-checks the pass generated from the
// whole corpus against the LLVM 14 headers with g++. It skips where g++
// or llvm-config-14 is not installed.
func TestGeneratedPassCompiles(t *testing.T) {
	for _, bin := range []string{"g++", "llvm-config-14"} {
		if _, err := exec.LookPath(bin); err != nil {
			t.Skipf("%s is not installed", bin)
		}
	}
	cxxflags, err := exec.Command("llvm-config-14", "--cxxflags").Output()
	if err != nil {
		t.Fatalf("llvm-config-14 --cxxflags: %v", err)
	}
	cpp, _ := GeneratePass("AliveCorpus", corpus(t))
	file := filepath.Join(t.TempDir(), "corpus.cpp")
	if err := os.WriteFile(file, []byte(prelude+cpp), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-std=c++17", "-fsyntax-only"}, strings.Fields(string(cxxflags))...)
	out, err := exec.Command("g++", append(args, file)...).CombinedOutput()
	if err != nil {
		errors := regexp.MustCompile(`(?m)^.*: error: .*$`).FindAllString(string(out), -1)
		t.Fatalf("g++ reports %d error lines (%v):\n%s", len(errors), err, strings.Join(errors, "\n"))
	}
}

// TestCorpusMatchPlans checks the plans of the corpus pass: the
// transforms it skips, the width checks of every written source type
// and Bool literal, constant-expression operands, and the types of
// constant select arms; and that a source instruction the root does
// not reach, which no clause would check, is rejected.
func TestCorpusMatchPlans(t *testing.T) {
	ts := corpus(t)
	_, skipped := GeneratePass("AliveCorpus", ts)
	// Memory instructions other than load have no matcher, nor have
	// constant expressions over constants the match has not bound.
	wantSkipped := []string{
		"LoadStoreAlloca:store-to-load-forwarding", "LoadStoreAlloca:load-after-two-stores",
		"LoadStoreAlloca:forward-through-input-pointer", "LoadStoreAlloca:dead-store-elimination",
		"LoadStoreAlloca:load-gep-zero", "LoadStoreAlloca:store-loaded-value",
		"LoadStoreAlloca:dead-alloca-store",
		"MulDivRem:udiv-shl-nuw", "Shifts:shl-xor-const",
	}
	if len(skipped) != len(wantSkipped) {
		t.Errorf("skipped %d transforms, want %d: %q", len(skipped), len(wantSkipped), skipped)
	}
	for _, name := range wantSkipped {
		if !strings.Contains(strings.Join(skipped, "\n"), name+": ") {
			t.Errorf("%s is not skipped", name)
		}
	}

	typed := 0
	for _, tr := range ts {
		body, err := Generate(tr)
		if err != nil {
			continue
		}
		var written []int
		for _, in := range tr.Source {
			switch in := in.(type) {
			case *ir.BinOp:
				written = appendWidth(written, in.DeclaredType)
			case *ir.ICmp:
				written = appendWidth(written, in.DeclaredType)
			case *ir.Select:
				written = appendWidth(written, in.DeclaredType)
			case *ir.Conv:
				written = appendWidth(appendWidth(written, in.FromType), in.ToType)
			}
		}
		if len(written) > 0 {
			typed++
		}
		for _, in := range tr.Source {
			for _, v := range ir.Operands(in) {
				if l, ok := v.(*ir.Literal); ok && l.Bool {
					written = append(written, 1) // true and false are i1
				}
			}
		}
		if got := strings.Count(body, "->isIntegerTy("); got != len(written) {
			t.Errorf("%s: %d width checks for %d written source types:\n%s", tr.Name, got, len(written), body)
		}
		for _, w := range written {
			if !strings.Contains(body, "->getType()->isIntegerTy("+strconv.Itoa(w)+")") {
				t.Errorf("%s: no check of the written i%d:\n%s", tr.Name, w, body)
			}
		}
	}
	if typed != 22 {
		t.Errorf("%d matchable transforms write a source type, want 22", typed)
	}

	for name, want := range map[string][]string{
		"MulDivRem:mul-bool-and": {"I->getType()->isIntegerTy(1)"},
		"Select:and-pattern":     {"cast<Instruction>(I)->getOperand(2)->getType()->isIntegerTy(1)"},
		"MulDivRem:udiv-narrow-zext": {
			"cast<Instruction>(zx)->getOperand(0)->getType()->isIntegerTy(8)",
			"zx->getType()->isIntegerTy(16)",
		},
		"AddSub:masked-halves": {
			"match(v2, m_And(m_Specific(x), m_ConstantInt(CE0)))",
			"CE0->getValue() == ~C->getValue()",
		},
		"AndOrXor:masked-or-partition": {"CE0->getValue() == ~C->getValue()"},
		// A constant arm has the other arm's type, not the i1 condition's.
		"AndOrXor:and-sext-bool-to-select": {`SelectInst::Create(b, x, ConstantInt::get(x->getType(), 0), "", I);`},
		"AndOrXor:or-sext-bool-to-select":  {`SelectInst::Create(b, ConstantInt::get(x->getType(), -1), x, "", I);`},
		"Select:add-into-arm":              {`SelectInst::Create(c, C, ConstantInt::get(C->getType(), 0), "", I);`},
		"AndOrXor:and-sign-mask-of-ashr": {
			"match(s, m_AShr(m_Value(x), m_ConstantInt(CE0)))",
			"CE0->getValue() == APInt(x->getType()->getScalarSizeInBits(), x->getType()->getScalarSizeInBits()) - 1",
		},
	} {
		i := slices.IndexFunc(ts, func(tr *ir.Transform) bool { return tr.Name == name })
		if i < 0 {
			t.Fatalf("%s is not in the corpus", name)
		}
		body, err := Generate(ts[i])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		mustContain(t, body, want...)
	}

	unreached, err := parser.ParseOne("%a = mul %x, 3\n%r = add %x, 0\n=>\n%a = mul %x, 3\n%r = %x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(unreached); err == nil || !strings.Contains(err.Error(), "does not reach") {
		t.Errorf("Generate: %v, want an error for the unreached %%a", err)
	}
}

func appendWidth(ws []int, t ir.Type) []int {
	if it, ok := t.(ir.IntType); ok {
		return append(ws, it.Bits)
	}
	return ws
}
