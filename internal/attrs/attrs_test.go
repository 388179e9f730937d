package attrs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"alive/internal/parser"
	"alive/internal/suite"
	"alive/internal/verify"
)

var vOpts = verify.Options{Widths: []int{4}, MaxAssignments: 1}

func infer(t *testing.T, src string) *Result {
	t.Helper()
	tr, err := parser.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Infer(tr, vOpts)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	return r
}

// slotOn reads the Best value of the slot for (side, name, flag).
func slotOn(r *Result, side Side, name, flag string) (bool, bool) {
	for i, s := range r.Slots {
		if s.Side == side && s.Name == name && s.Flag.String() == flag {
			return r.Best[i], true
		}
	}
	return false, false
}

func TestStrengthenTargetNsw(t *testing.T) {
	// -(-x) = x: the target sub can carry nothing... use a case where the
	// target can gain nsw: source add nsw commuted.
	r := infer(t, `
%r = add nsw %x, %y
=>
%r = add %y, %x
`)
	on, ok := slotOn(r, TgtSide, "%r", "nsw")
	if !ok {
		t.Fatal("target nsw slot missing")
	}
	if !on {
		t.Fatal("target add should gain nsw (source already guarantees no signed wrap)")
	}
	if !r.TargetStrengthened {
		t.Fatal("TargetStrengthened should be set")
	}
}

func TestTargetCannotGainNswWithoutSourceGuarantee(t *testing.T) {
	r := infer(t, `
%r = add %x, %y
=>
%r = add %y, %x
`)
	on, ok := slotOn(r, TgtSide, "%r", "nsw")
	if !ok {
		t.Fatal("slot missing")
	}
	if on {
		t.Fatal("target must not gain nsw without a source guarantee")
	}
	if r.TargetStrengthened {
		t.Fatal("nothing to strengthen")
	}
}

func TestWeakenSourceAttribute(t *testing.T) {
	// x ^ x = 0 does not need the source's nuw at all: the source
	// attribute can be dropped, weakening the precondition.
	r := infer(t, `
%r = add nuw %x, 0
=>
%r = %x
`)
	on, ok := slotOn(r, SrcSide, "%r", "nuw")
	if !ok {
		t.Fatal("source slot missing")
	}
	if on {
		t.Fatal("source nuw is unnecessary and should be dropped")
	}
	if !r.SourceWeakened {
		t.Fatal("SourceWeakened should be set")
	}
}

func TestNecessarySourceAttributeKept(t *testing.T) {
	// (x+1 > x) = true requires nsw on the source add.
	r := infer(t, `
%1 = add nsw %x, 1
%2 = icmp sgt %1, %x
=>
%2 = true
`)
	on, ok := slotOn(r, SrcSide, "%1", "nsw")
	if !ok {
		t.Fatal("source slot missing")
	}
	if !on {
		t.Fatal("source nsw is necessary and must be kept")
	}
	if r.SourceWeakened {
		t.Fatal("the nsw cannot be weakened")
	}
}

func TestBothFlagsInferred(t *testing.T) {
	// Commuted add nsw nuw: both flags transfer to the target.
	r := infer(t, `
%r = add nsw nuw %x, %y
=>
%r = add %y, %x
`)
	for _, flag := range []string{"nsw", "nuw"} {
		on, ok := slotOn(r, TgtSide, "%r", flag)
		if !ok || !on {
			t.Fatalf("target should gain %s", flag)
		}
	}
}

func TestExactInference(t *testing.T) {
	// Dividing a shifted-left value back down is exact.
	r := infer(t, `
%s = shl nuw %x, 1
%r = udiv %s, 2
=>
%r = %x
`)
	on, ok := slotOn(r, SrcSide, "%r", "exact")
	if !ok {
		t.Fatal("source udiv exact slot missing")
	}
	_ = on // exact on the source may or may not be required; just ensure inference ran
	if r.Checks == 0 {
		t.Fatal("expected checker invocations")
	}
}

func TestIncorrectTransformRejected(t *testing.T) {
	tr, err := parser.ParseOne(`
%r = lshr %x, 1
=>
%r = ashr %x, 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(tr, vOpts); err == nil {
		t.Fatal("inference must reject incorrect transformations")
	}
}

func TestNoSlots(t *testing.T) {
	r := infer(t, `
%r = xor %x, %x
=>
%r = 0
`)
	if len(r.Slots) != 0 {
		t.Fatalf("xor has no inferable attributes, got %v", r.Slots)
	}
}

func TestRenderAppliesAssignment(t *testing.T) {
	r := infer(t, `
%r = add nsw %x, %y
=>
%r = add %y, %x
`)
	out := r.Render(r.Best)
	// The rendered target must carry nsw.
	lines := strings.Split(out, "=>")
	if !strings.Contains(lines[1], "nsw") {
		t.Fatalf("rendered best assignment missing target nsw:\n%s", out)
	}
	// Render must not leave the transform mutated.
	if !strings.Contains(lines[0], "nsw") {
		t.Fatal("source flags must be restored after Render")
	}
	cur := r.Transform.String()
	if !strings.Contains(strings.Split(cur, "=>")[0], "nsw") {
		t.Fatal("transform mutated after Render")
	}
}

func TestPartialOrderPruning(t *testing.T) {
	// With 3+ slots, pruning must keep the check count below 2^k.
	r := infer(t, `
%r = add nsw nuw %x, %y
=>
%r = add %y, %x
`)
	total := 1 << uint(len(r.Slots))
	if r.Checks >= total {
		t.Fatalf("no pruning happened: %d checks for %d candidates", r.Checks, total)
	}
}

func TestDescribe(t *testing.T) {
	r := infer(t, `
%r = add nsw %x, %y
=>
%r = add %y, %x
`)
	d := r.Describe()
	if !strings.Contains(d, "add tgt %r nsw") {
		t.Fatalf("Describe missing the inferred addition:\n%s", d)
	}
}

// TestGaveUpIsNotIncorrect: a candidate the checker gives up on stays
// undecided. sub-constants-fold at width 4 under a one-conflict budget
// has feasible candidates the checker cannot decide; treating them as
// incorrect would prune feasible candidates as infeasible.
func TestGaveUpIsNotIncorrect(t *testing.T) {
	i := slices.IndexFunc(suite.All(), func(e suite.Entry) bool { return e.Name == "AddSub:sub-constants-fold" })
	if i < 0 {
		t.Fatal("corpus transform missing")
	}
	e := suite.All()[i]
	full, err := Infer(e.Parse(), vOpts)
	if err != nil {
		t.Fatal(err)
	}
	budget := vOpts
	budget.MaxConflicts = 1
	r, err := Infer(e.Parse(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Undecided) == 0 {
		t.Fatal("no candidate was left undecided under a one-conflict budget")
	}
	feasible := map[string]bool{}
	for _, a := range full.Feasible {
		feasible[bits(a)] = true
	}
	known := map[string]bool{}
	for _, a := range r.Feasible {
		if !feasible[bits(a)] {
			t.Errorf("%s is reported feasible but is not", bits(a))
		}
		known[bits(a)] = true
	}
	for _, a := range r.Undecided {
		known[bits(a)] = true
	}
	for _, a := range full.Feasible {
		if !known[bits(a)] {
			t.Errorf("feasible %s was decided infeasible", bits(a))
		}
	}
	if d := r.Describe(); !strings.Contains(d, fmt.Sprintf("%d assignments undecided", len(r.Undecided))) {
		t.Errorf("Describe does not report the undecided candidates:\n%s", d)
	}
}

// stopAfter is a context that reports itself cancelled from its
// (n+1)th Err call on. It has no Done channel, so a check already
// running is never interrupted: only Infer's test between checks sees
// it.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestInferStopsBetweenChecks: once the context is done no further
// check starts, and the candidates left are undecided.
func TestInferStopsBetweenChecks(t *testing.T) {
	tr, err := parser.ParseOne(`
%r = add nsw nuw %x, %y
=>
%r = add %y, %x
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := InferContext(&stopAfter{Context: context.Background(), n: 1}, tr, vOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checks != 1 {
		t.Fatalf("%d checks after the context ended, want only the original's", r.Checks)
	}
	if len(r.Undecided) == 0 {
		t.Fatal("the unchecked candidates are not reported undecided")
	}
	if bits(r.Best) != bits(r.Original) {
		t.Fatalf("best = %s with nothing beyond the original proven, want %s", bits(r.Best), bits(r.Original))
	}
	if d := r.Describe(); !strings.Contains(d, "no better attributes proven") {
		t.Fatalf("Describe claims an outcome it did not prove:\n%s", d)
	}
}

// TestUndecidedOriginal: an original form the checker could not decide
// is reported as undecided, not as incorrect.
func TestUndecidedOriginal(t *testing.T) {
	tr, err := parser.ParseOne(`
%r = add nsw %x, %y
=>
%r = add %y, %x
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = InferContext(ctx, tr, vOpts)
	if err == nil || !strings.Contains(err.Error(), "could not decide") || strings.Contains(err.Error(), "not correct") {
		t.Fatalf("error = %v, want one saying the original form was not decided", err)
	}
}
