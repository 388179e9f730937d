package verify

import (
	"strings"
	"testing"

	"alive/internal/parser"
	"alive/internal/suite"
)

// quick options keep unit tests fast: small widths only.
var quickOpts = Options{Widths: []int{4, 8}, MaxAssignments: 4}

func run(t *testing.T, src string, opts Options) Result {
	t.Helper()
	tr, err := parser.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Verify(tr, opts)
}

func mustValid(t *testing.T, src string, opts Options) {
	t.Helper()
	r := run(t, src, opts)
	if r.Verdict != Valid {
		msg := ""
		if r.Cex != nil {
			msg = r.Cex.String()
		}
		t.Fatalf("want valid, got %v (err=%v)\n%s", r.Verdict, r.Err, msg)
	}
}

func mustInvalid(t *testing.T, src string, opts Options) *Counterexample {
	t.Helper()
	r := run(t, src, opts)
	if r.Verdict != Invalid {
		t.Fatalf("want invalid, got %v (err=%v)", r.Verdict, r.Err)
	}
	if r.Cex == nil {
		t.Fatal("invalid result must carry a counterexample")
	}
	return r.Cex
}

// ---- Valid transformations from the paper ----

func TestIntroExampleValid(t *testing.T) {
	mustValid(t, `
%1 = xor %x, -1
%2 = add %1, C
=>
%2 = sub C-1, %x
`, quickOpts)
}

func TestIntroExampleValidAt32Bits(t *testing.T) {
	mustValid(t, `
%1 = xor i32 %x, -1
%2 = add %1, 3333
=>
%2 = sub 3332, %x
`, Options{Widths: []int{32}})
}

func TestNswIcmpTrue(t *testing.T) {
	// (x + 1 > x) folds to true under nsw (Section 2.4).
	mustValid(t, `
%1 = add nsw %x, 1
%2 = icmp sgt %1, %x
=>
%2 = true
`, quickOpts)
}

func TestNoNswIcmpInvalid(t *testing.T) {
	// Without nsw the comparison is false at x = INT_MAX.
	cex := mustInvalid(t, `
%1 = add %x, 1
%2 = icmp sgt %1, %x
=>
%2 = true
`, quickOpts)
	if cex.Kind != CexValueMismatch {
		t.Fatalf("kind = %v, want value mismatch", cex.Kind)
	}
}

func TestPaperUndefExample(t *testing.T) {
	// Section 3.1.3: select undef, -1, 0 => ashr undef, 3 at i4.
	mustValid(t, `
%r = select undef, i4 -1, 0
=>
%r = ashr undef, 3
`, quickOpts)
}

func TestUndefReverseInvalid(t *testing.T) {
	// The reverse refinement is invalid at widths where ashr produces a
	// value select cannot: none here — instead check a genuinely wrong
	// undef refinement: source picks any value, target must still match.
	cex := mustInvalid(t, `
%r = xor %x, %x
=>
%r = xor undef, %x
`, quickOpts)
	_ = cex
}

func TestUndefSourceRefinesToZero(t *testing.T) {
	// xor undef, undef can produce any value, so the compiler may pick 0.
	mustValid(t, `
%r = xor undef, undef
=>
%r = 0
`, quickOpts)
}

func TestOrWithUndefOddValues(t *testing.T) {
	// or 1, undef yields odd values; refining to 1 is allowed.
	mustValid(t, `
%r = or undef, 1
=>
%r = 1
`, quickOpts)
}

func TestFigure2Valid(t *testing.T) {
	mustValid(t, `
Pre: C1 & C2 == 0 && MaskedValueIsZero(%V, ~C1)
%t0 = or %B, %V
%t1 = and %t0, C1
%t2 = and %B, C2
%R = or %t1, %t2
=>
%R = and %t0, (C1 | C2)
`, quickOpts)
}

func TestShlAshrExampleFromSection313(t *testing.T) {
	// Pre: C1 u>= C2 ... (the paper's running example) — this one is
	// actually PR21245-adjacent but with shifts only, and is correct only
	// with the right precondition; the paper's version:
	mustValid(t, `
Pre: C1 u>= C2
%0 = shl nsw i8 %a, C1
%1 = ashr %0, C2
=>
%1 = shl nsw %a, C1-C2
`, Options{Widths: []int{8}})
}

func TestSubToAddValid(t *testing.T) {
	mustValid(t, `
%B = sub 0, %A
%C = sub %x, %B
=>
%C = add %x, %A
`, quickOpts)
}

func TestMulToShlWithoutNswValid(t *testing.T) {
	mustValid(t, `
Pre: isPowerOf2(C1)
%r = mul %x, C1
=>
%r = shl %x, log2(C1)
`, quickOpts)
}

// ---- The eight Figure 8 bugs ----

var figure8 = map[string]string{
	"PR20186": "%a = sdiv %X, C\n%r = sub 0, %a\n=>\n%r = sdiv %X, -C",
	"PR20189": "%B = sub 0, %A\n%C = sub nsw %x, %B\n=>\n%C = add nsw %x, %A",
	"PR21242": "Pre: isPowerOf2(C1)\n%r = mul nsw %x, C1\n=>\n%r = shl nsw %x, log2(C1)",
	"PR21243": "Pre: !WillNotOverflowSignedMul(C1, C2)\n%Op0 = sdiv %X, C1\n%r = sdiv %Op0, C2\n=>\n%r = 0",
	"PR21245": "Pre: C2 % (1<<C1) == 0\n%s = shl nsw %X, C1\n%r = sdiv %s, C2\n=>\n%r = sdiv %X, C2/(1<<C1)",
	"PR21255": "%Op0 = lshr %X, C1\n%r = udiv %Op0, C2\n=>\n%r = udiv %X, C2 << C1",
	"PR21256": "%Op1 = sub 0, %X\n%r = srem %Op0, %Op1\n=>\n%r = srem %Op0, %X",
	"PR21274": "Pre: isPowerOf2(%Power) && hasOneUse(%Y)\n%s = shl %Power, %A\n%Y = lshr %s, %B\n%r = udiv %X, %Y\n=>\n%sub = sub %A, %B\n%Y = shl %Power, %sub\n%r = udiv %X, %Y",
}

func TestFigure8AllInvalid(t *testing.T) {
	for name, src := range figure8 {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			r := run(t, "Name: "+name+"\n"+src, quickOpts)
			if r.Verdict != Invalid {
				t.Fatalf("%s must be invalid, got %v (err=%v)", name, r.Verdict, r.Err)
			}
		})
	}
}

func TestPR21245CounterexampleShape(t *testing.T) {
	// Figure 5: the counterexample must be a value mismatch on %r and
	// list %X, C1, C2 and the intermediate %s.
	cex := mustInvalid(t, "Name: PR21245\n"+figure8["PR21245"], Options{Widths: []int{4}})
	if cex.Kind != CexValueMismatch {
		t.Fatalf("kind = %v, want value mismatch", cex.Kind)
	}
	if cex.RootName != "%r" {
		t.Fatalf("root = %s, want %%r", cex.RootName)
	}
	s := cex.String()
	for _, needle := range []string{"Mismatch in values", "%X i4", "C1 i4", "C2 i4", "%s i4", "Source value:", "Target value:"} {
		if !strings.Contains(s, needle) {
			t.Errorf("counterexample missing %q:\n%s", needle, s)
		}
	}
}

func TestPR21256DefinednessBug(t *testing.T) {
	cex := mustInvalid(t, figure8["PR21256"], quickOpts)
	if cex.Kind != CexMoreUndefined {
		t.Fatalf("PR21256 is an undefined-behavior bug, got kind %v", cex.Kind)
	}
}

func TestPR20189PoisonBug(t *testing.T) {
	cex := mustInvalid(t, figure8["PR20189"], quickOpts)
	if cex.Kind != CexMorePoison && cex.Kind != CexValueMismatch {
		t.Fatalf("PR20189 should fail poison or value check, got %v", cex.Kind)
	}
}

// ---- Fixed versions of the Figure 8 bugs verify ----

func TestFixedPR20186(t *testing.T) {
	// Excluding C = INT_MIN and C = 1 overflow cases... the actual LLVM
	// fix guards the negation: -C must not overflow and -C != -1 UB gap.
	mustValid(t, `
Pre: C != 1 && !isSignBit(C)
%a = sdiv %X, C
%r = sub 0, %a
=>
%r = sdiv %X, -C
`, quickOpts)
}

func TestFixedPR21245(t *testing.T) {
	// Keeping 1<<C1 positive (C1 strictly below width-1) rules out the
	// sign-bit overflow that Figure 5 exposes.
	mustValid(t, `
Pre: C2 % (1<<C1) == 0 && C1 u< width(%X)-1
%s = shl nsw %X, C1
%r = sdiv %s, C2
=>
%r = sdiv %X, C2/(1<<C1)
`, Options{Widths: []int{4, 8}})
}

func TestFixedPR21256(t *testing.T) {
	// Excluding %X = -1 removes the definedness gap (target srem by -1 is
	// UB at Op0 = INT_MIN while the source srem by 1 is defined).
	mustValid(t, `
Pre: %X != -1
%Op1 = sub 0, %X
%r = srem %Op0, %Op1
=>
%r = srem %Op0, %X
`, quickOpts)
}

// ---- Verdict bookkeeping ----

func TestResultMetadata(t *testing.T) {
	r := run(t, `
%r = add %x, 0
=>
%r = %x
`, quickOpts)
	if r.Verdict != Valid {
		t.Fatalf("got %v", r.Verdict)
	}
	if r.TypeAssignments == 0 {
		t.Fatal("metadata not recorded")
	}
	// add %x, 0 simplifies to %x at construction, so every condition is
	// discharged by hash-consing without touching the solver.
	if r.Queries != 0 {
		t.Fatalf("trivially equal transform should need 0 queries, used %d", r.Queries)
	}
	if r.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
	// A non-trivial valid transform does reach the solver.
	r2 := run(t, `
%1 = add %x, %y
%r = sub %1, %y
=>
%r = %x
`, Options{Widths: []int{4}})
	if r2.Verdict != Valid || r2.Queries == 0 {
		t.Fatalf("want valid with solver queries, got %v with %d", r2.Verdict, r2.Queries)
	}
}

func TestHardArithWidthCap(t *testing.T) {
	tr, err := parser.ParseOne(`
%r = mul %x, C
=>
%r = mul %x, C
`)
	if err != nil {
		t.Fatal(err)
	}
	if !hasHardArith(tr) {
		t.Fatal("mul should be classified as hard arithmetic")
	}
	r := Verify(tr, Options{Widths: []int{4, 64}, DivMulMaxWidth: 8})
	if r.Verdict != Valid {
		t.Fatalf("got %v", r.Verdict)
	}
	// Only width 4 survives the cap.
	if r.TypeAssignments != 1 {
		t.Fatalf("width cap not applied: %d assignments", r.TypeAssignments)
	}
}

func TestTrivialIdentity(t *testing.T) {
	mustValid(t, `
%r = and %x, %x
=>
%r = %x
`, quickOpts)
}

func TestDeMorgan(t *testing.T) {
	mustValid(t, `
%nx = xor %x, -1
%ny = xor %y, -1
%r = and %nx, %ny
=>
%o = or %x, %y
%r = xor %o, -1
`, quickOpts)
}

func TestInvalidSignedness(t *testing.T) {
	cex := mustInvalid(t, `
%r = lshr %x, 1
=>
%r = ashr %x, 1
`, quickOpts)
	if cex.Kind != CexValueMismatch {
		t.Fatalf("got %v", cex.Kind)
	}
}

func TestExactAttributes(t *testing.T) {
	// (x / C) * C == x under exact division.
	mustValid(t, `
%d = sdiv exact %x, C
%r = mul %d, C
=>
%r = %x
`, quickOpts)
	// Without exact it is wrong.
	mustInvalid(t, `
%d = sdiv %x, C
%r = mul %d, C
=>
%r = %x
`, quickOpts)
}

func TestSelectFold(t *testing.T) {
	mustValid(t, `
%c = icmp eq %x, %y
%r = select %c, %x, %y
=>
%r = %y
`, quickOpts)
}

func TestUnknownPredicateIsUnknown(t *testing.T) {
	r := run(t, `
Pre: totallyMadeUp(%x)
%r = add %x, 0
=>
%r = %x
`, quickOpts)
	if r.Verdict != Unknown || r.Err == nil {
		t.Fatalf("unknown predicate should yield Unknown with error, got %v (%v)", r.Verdict, r.Err)
	}
}

// TestWideShiftPreprocessing pins how far CNF preprocessing gets on
// the composed-shift long pole at i64: it must reach far past the 25
// eliminations of a preprocessor that spends its default budget in
// round-1 subsumption. The counter is deterministic.
func TestWideShiftPreprocessing(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 64-bit query")
	}
	var r Result
	for _, e := range suite.All() {
		if e.Name == "Shifts:shl-shl-sum" {
			r = Verify(e.Parse(), Options{Widths: []int{64}})
		}
	}
	if r.Verdict != Valid {
		t.Fatalf("Shifts:shl-shl-sum at i64: got %v (err=%v), want valid", r.Verdict, r.Err)
	}
	if got := r.Counters.VarsEliminated; got < 250 {
		t.Errorf("Shifts:shl-shl-sum at i64: %d variables eliminated, want at least 250", got)
	}
}
