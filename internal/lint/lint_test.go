package lint

import (
	"testing"
	"time"

	"alive/internal/ir"
	"alive/internal/parser"
)

func mustParse(t *testing.T, src string) *ir.Transform {
	t.Helper()
	tr, err := parser.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func codesOf(ds []Diagnostic) map[string]int {
	m := map[string]int{}
	for _, d := range ds {
		m[d.Code]++
	}
	return m
}

// TestStructuralViolation reaches AL001 through a programmatically built
// transform; the parser rejects such input before the linter ever sees
// it, so this is the only route.
func TestStructuralViolation(t *testing.T) {
	x, y := &ir.Input{VName: "%x"}, &ir.Input{VName: "%y"}
	tr := &ir.Transform{
		Name:   "prog-built",
		Root:   "%r",
		Source: []ir.Instr{&ir.BinOp{VName: "%r", Op: ir.Add, X: x, Y: y}},
		Target: []ir.Instr{&ir.BinOp{VName: "%q", Op: ir.Add, X: x, Y: y}},
	}
	ds := Transform(tr)
	if codesOf(ds)["AL001"] != 1 {
		t.Fatalf("want one AL001, got %v", ds)
	}
	if !HasErrors(ds) {
		t.Fatal("AL001 must be an error")
	}
}

// TestErrorPathBudget checks the acceptance bound: lint verdicts on a
// synthetic bad transform come back in under a millisecond. Error
// findings from the structural tiers skip the semantic tier, so the
// error path never encodes VCs — it is plain traversal.
func TestErrorPathBudget(t *testing.T) {
	tr := mustParse(t, `
Name: bad
Pre: C u< C && isPowerOf2(3)
%a = zext %x
%r = add nsw %a, C
=>
%r = and nsw %q, C2
`)
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		ds := Transform(tr)
		if d := time.Since(start); d < best {
			best = d
		}
		if !HasErrors(ds) {
			t.Fatal("expected error findings")
		}
	}
	if best > time.Millisecond {
		t.Fatalf("lint took %v, want < 1ms", best)
	}
}

// TestRegistryConsistent checks that every code a check claims is in the
// Codes table and every table entry is claimed by exactly one check.
func TestRegistryConsistent(t *testing.T) {
	known := map[string]bool{}
	for _, ci := range Codes {
		known[ci.Code] = true
	}
	claimed := map[string]string{}
	claim := func(name string, codes []string) {
		for _, c := range codes {
			if !known[c] {
				t.Errorf("check %s emits unregistered code %s", name, c)
			}
			if prev, dup := claimed[c]; dup {
				t.Errorf("code %s claimed by both %s and %s", c, prev, name)
			}
			claimed[c] = name
		}
	}
	for _, c := range Checks() {
		claim(c.Name, c.Codes)
	}
	for _, c := range CorpusChecks() {
		claim(c.Name, c.Codes)
	}
	for _, ci := range Codes {
		if claimed[ci.Code] == "" {
			t.Errorf("code %s is in the table but no check claims it", ci.Code)
		}
	}
}

func TestCountAndHasErrors(t *testing.T) {
	ds := []Diagnostic{
		{Code: "AL002", Severity: Error},
		{Code: "AL007", Severity: Warning},
		{Code: "AL008", Severity: Info},
		{Code: "AL007", Severity: Warning},
	}
	e, w, i := Count(ds)
	if e != 1 || w != 2 || i != 1 {
		t.Fatalf("Count = %d/%d/%d", e, w, i)
	}
	if !HasErrors(ds) || HasErrors(ds[1:]) {
		t.Fatal("HasErrors wrong")
	}
}

// TestCleanTransform checks the linter stays quiet on a well-formed
// transformation with a meaningful precondition.
func TestCleanTransform(t *testing.T) {
	tr := mustParse(t, `
Name: clean
Pre: isPowerOf2(C)
%r = mul %x, C
=>
%r = shl %x, log2(C)
`)
	if ds := Transform(tr); len(ds) != 0 {
		t.Fatalf("unexpected findings: %v", ds)
	}
}

// TestWidthDependentFoldSuppressed checks the probe-width agreement
// rule: (1 << 8) == 0 is true at i8 and false at wider types, so the
// linter must stay silent rather than guess.
func TestWidthDependentFoldSuppressed(t *testing.T) {
	tr := mustParse(t, `
Name: width-dependent
Pre: 1 << 8 == 0
%r = add %x, C
=>
%r = add %x, C
`)
	for _, d := range Transform(tr) {
		if d.Code == "AL006" || d.Code == "AL007" {
			t.Fatalf("width-dependent comparison misreported: %v", d)
		}
	}
}

// TestDivisionByZeroNotFolded checks the folder refuses the SMT-LIB
// division convention rather than baking it into a verdict.
func TestDivisionByZeroNotFolded(t *testing.T) {
	tr := mustParse(t, `
Name: div-zero
Pre: 3 / 0 == 0
%r = add %x, C
=>
%r = add %x, C
`)
	for _, d := range Transform(tr) {
		if d.Code == "AL006" || d.Code == "AL007" {
			t.Fatalf("division by zero folded: %v", d)
		}
	}
}

// TestMaxMinFoldSigned checks that max and min fold as signed, as the
// verifier encodes them. Folded as unsigned, both conjuncts read as
// always false, and alive -lint rejected a transform the verifier proves
// valid.
func TestMaxMinFoldSigned(t *testing.T) {
	for _, tc := range []struct {
		pre          string
		al006, al007 int
	}{
		{"max(-1, 2) == 2 && min(-1, 2) == -1", 0, 2},
		{"umax(-1, 2) == 2", 1, 0},
	} {
		tr := mustParse(t, "Name: max-min\nPre: "+tc.pre+"\n%r = add %x, 0\n=>\n%r = %x\n")
		ds := Transform(tr)
		if c := codesOf(ds); c["AL006"] != tc.al006 || c["AL007"] != tc.al007 {
			t.Errorf("%s: want %d AL006 and %d AL007, got %v", tc.pre, tc.al006, tc.al007, ds)
		}
	}
}
