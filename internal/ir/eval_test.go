package ir_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"alive/internal/bv"
	"alive/internal/ir"
	"alive/internal/parser"
	"alive/internal/smt"
	"alive/internal/typing"
	"alive/internal/vcgen"
)

// evalPreds cover every constant operator, every constant function vcgen
// encodes, the ten comparisons, every built-in predicate on constant
// arguments and the three connectives, over the constants C1, C2, C3.
var evalPreds = []string{
	"-C1 == C2", "~C1 == C2",
	"C1 + C2 == C3", "C1 - C2 == C3", "C1 * C2 == C3",
	"C1 / C2 == C3", "C1 /u C2 == C3", "C1 % C2 == C3", "C1 %u C2 == C3",
	"C1 << C2 == C3", "C1 >> C2 == C3", "C1 u>> C2 == C3",
	"C1 & C2 == C3", "C1 | C2 == C3", "C1 ^ C2 == C3",
	"C1 + 1 == C2", "-1 u>> C1 == C2", "C1 & ~C2 != 0", "(C1 * C2) /u C1 == C2",
	"C2 % (1 << C1) == 0", "max(-1, 2) == C1", "min(-1, 2) == C1", "3 / 0 == C1",

	"C1 == C2", "C1 != C2", "C1 < C2", "C1 <= C2", "C1 > C2", "C1 >= C2",
	"C1 u< C2", "C1 u<= C2", "C1 u> C2", "C1 u>= C2",

	"width(C1) == C2", "width(%x) u> C1", "C1 + C2 u< width(%x)",
	"log2(C1) == C2", "abs(C1) == C2",
	"umax(C1, C2) == C3", "umin(C1, C2) == C3", "smax(C1, C2) == C3",
	"smin(C1, C2) == C3", "max(C1, C2) == C3", "min(C1, C2) == C3",
	"ctlz(C1) == C2", "countLeadingZeros(C1) == C2",
	"cttz(C1) == C2", "countTrailingZeros(C1) == C2",
	"zext(C1) == C2", "sext(C1) == C2", "trunc(C1) == C2",
	"sext(C1 + C2) u< C3", "trunc(C1) + zext(C2) == C3", "zext(trunc(C1)) == C2",
	"zext(C1) == trunc(C2)",

	"isPowerOf2(C1)", "isPowerOf2(C1 + C2)", "isPowerOf2(width(%x) - C1)",
	"isPowerOf2(width(%x))",
	"isPowerOf2OrZero(C1)", "isSignBit(C1)", "isShiftedMask(C1)",
	"MaskedValueIsZero(C1, C2)", "MaskedValueIsZero(C1, ~C2)", "mayAlias(C1, C2)",
	"WillNotOverflowSignedAdd(C1, C2)", "WillNotOverflowUnsignedAdd(C1, C2)",
	"WillNotOverflowSignedSub(C1, C2)", "WillNotOverflowUnsignedSub(C1, C2)",
	"WillNotOverflowSignedMul(C1, C2)", "WillNotOverflowUnsignedMul(C1, C2)",
	"WillNotOverflowSignedShl(C1, C2)", "WillNotOverflowUnsignedShl(C1, C2)",

	"!(C1 == C2)", "!isSignBit(C1) && C1 != 1", "C1 == C2 && C2 u< C3",
	"C1 == C2 || isPowerOf2(C3)", "!(C1 u< C2 || !(C2 u< C3))",
	"!(C1 / C2 == C3)", "C1 / C2 == C3 && C1 == C2", "C1 / C2 == C3 || C1 != C2",
	"!(zext(trunc(C1)) == C2)", "C1 == C1 || zext(trunc(C1)) == C2",
}

// neverDecided are the preconditions the evaluator must leave undecided:
// a constant division by zero.
var neverDecided = []string{"3 / 0 == C1"}

// parsedPreds parses each of evalPreds into a transform whose template
// leaves every constant's width free.
var parsedPreds = sync.OnceValues(func() ([]*ir.Transform, error) {
	var ts []*ir.Transform
	for _, p := range evalPreds {
		tr, err := parser.ParseOne("Name: eval\nPre: " + p + "\n%r = add i8 %x, 0\n=>\n%r = %x\n")
		if err != nil {
			return nil, err
		}
		ts = append(ts, tr)
	}
	return ts, nil
})

// asgEnv binds constants to values and every value to its width under a
// type assignment, and answers no analysis.
type asgEnv struct {
	asg  *typing.Assignment
	vals map[string]bv.Vec
}

func (e asgEnv) Const(c *ir.AbstractConst) (bv.Vec, bool) {
	v, ok := e.vals[c.CName]
	return v, ok
}

func (e asgEnv) Width(v ir.Value) (int, bool) {
	w := e.asg.WidthOf(v)
	return w, w > 0
}

func (asgEnv) Analysis(*ir.FuncPred) ir.Truth { return ir.Undecided }

// constants binds C1, C2, C3, as far as tr uses them, to the low bits
// of xs at their widths under asg.
func constants(tr *ir.Transform, asg *typing.Assignment, xs [3]uint64) map[string]bv.Vec {
	vals := map[string]bv.Vec{}
	ir.WalkPred(tr.Pre, func(arg ir.Value) {
		ir.WalkValues(arg, func(v ir.Value) {
			if c, ok := v.(*ir.AbstractConst); ok {
				i := int(c.CName[1] - '1')
				vals[c.CName] = bv.New(asg.WidthOf(c), xs[i])
			}
		})
	})
	return vals
}

// compareWithVCGen evaluates the precondition of tr and each of its
// constant subexpressions under asg and vals, and fails t wherever the
// evaluator decides something vcgen's encoding, evaluated by smt.Eval,
// does not. It reports whether the evaluator decided the precondition.
func compareWithVCGen(t testing.TB, tr *ir.Transform, asg *typing.Assignment, vals map[string]bv.Vec) bool {
	t.Helper()
	enc, err := vcgen.Encode(smt.NewBuilder(), tr, asg)
	if err != nil {
		t.Fatalf("%s: %v", tr.Pre, err)
	}
	m := smt.NewModel()
	for k, v := range vals {
		m.BVs[k] = v
	}
	env := asgEnv{asg, vals}
	ir.WalkPred(tr.Pre, func(arg ir.Value) {
		ir.WalkValues(arg, func(v ir.Value) {
			e, encoded := enc.Values[v]
			if !ir.IsConstValue(v) || !encoded || e.Val == nil {
				return
			}
			got, ok := ir.EvalConst(v, asg.WidthOf(v), env)
			if want := smt.Eval(e.Val, m).V; ok && !got.Eq(want) {
				t.Errorf("%s: %s evaluates to %s, vcgen to %s (%s, %v)", tr.Pre, v, got, want, asg, vals)
			}
		})
	})
	got := ir.EvalPred(tr.Pre, env)
	if got == ir.Undecided {
		return false
	}
	if want := smt.Eval(enc.Pre, m).B; (got == ir.True) != want {
		t.Errorf("%s evaluates to %v, vcgen to %v (%s, %v)", tr.Pre, got == ir.True, want, asg, vals)
	}
	return true
}

// TestEvalAgreesWithVCGen checks the evaluator against vcgen, the
// semantics the verifier proves in, under every type assignment over
// widths 1, 2, 3, 4 and 8 with random constants: wherever the evaluator
// decides a value, the two agree, and it decides each precondition
// except those of neverDecided at least once.
func TestEvalAgreesWithVCGen(t *testing.T) {
	ts, err := parsedPreds()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i, tr := range ts {
		asgs, err := typing.Infer(tr, typing.Options{Widths: []int{1, 2, 3, 4, 8}, MaxAssignments: 1000})
		if err != nil {
			t.Fatalf("%s: %v", evalPreds[i], err)
		}
		decided := 0
		for _, asg := range asgs {
			for range 300/len(asgs) + 10 {
				xs := [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
				if compareWithVCGen(t, tr, asg, constants(tr, asg, xs)) {
					decided++
				}
			}
		}
		if never := slices.Contains(neverDecided, evalPreds[i]); never != (decided == 0) {
			t.Errorf("%s: decided %d times, want never: %v", evalPreds[i], decided, never)
		}
	}
}

// FuzzEval checks the evaluator against vcgen on fuzzed constants under
// a type assignment over up to three fuzzed widths from 1 to 8.
func FuzzEval(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(8), uint8(1), uint8(0), uint64(3), uint64(5), uint64(8))
	f.Add(uint8(50), uint8(2), uint8(5), uint8(8), uint8(3), uint64(0x80), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, pred, w1, w2, w3, pick uint8, a, b, c uint64) {
		ts, err := parsedPreds()
		if err != nil {
			t.Fatal(err)
		}
		tr := ts[int(pred)%len(ts)]
		widths := []int{int(w1%8) + 1, int(w2%8) + 1, int(w3%8) + 1}
		slices.Sort(widths)
		asgs, err := typing.Infer(tr, typing.Options{Widths: slices.Compact(widths), MaxAssignments: 64})
		if err != nil {
			return // a conversion needs more distinct widths
		}
		asg := asgs[int(pick)%len(asgs)]
		compareWithVCGen(t, tr, asg, constants(tr, asg, [3]uint64{a, b, c}))
	})
}
