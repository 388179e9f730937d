package verify

import (
	"testing"

	"alive/internal/lint"
	"alive/internal/parser"
)

// badTransform carries an AL002 scope error (target uses a register the
// source never binds) yet verifies as unknown without lint: the encoder
// treats the fresh register as an input it cannot relate to the source.
const badTransform = `
Name: unbound-target
%r = add %x, %y
=>
%r = add %x, %z
`

// TestLintRejects checks the pre-verification fast path: with
// Options.Lint set, error findings reject the transformation before any
// typing or solver work, and the diagnostics ride along in the Result.
func TestLintRejects(t *testing.T) {
	tr, err := parser.ParseOne(badTransform)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts
	opts.Lint = true
	r := Verify(tr, opts)
	if r.Verdict != Rejected {
		t.Fatalf("want rejected, got %v (err=%v)", r.Verdict, r.Err)
	}
	if r.Verdict.String() != "rejected" {
		t.Fatalf("Verdict.String() = %q", r.Verdict.String())
	}
	if r.Queries != 0 || r.TypeAssignments != 0 {
		t.Fatalf("rejection must not touch the solver: %d queries, %d assignments", r.Queries, r.TypeAssignments)
	}
	if !lint.HasErrors(r.Lint) {
		t.Fatalf("Result.Lint must carry the error findings, got %v", r.Lint)
	}
}

// TestLintOffKeepsVerdict checks the flag is opt-in: the same bad
// transformation still goes to the prover without it.
func TestLintOffKeepsVerdict(t *testing.T) {
	tr, err := parser.ParseOne(badTransform)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(tr, quickOpts)
	if r.Verdict == Rejected {
		t.Fatal("lint must not run unless requested")
	}
	if len(r.Lint) != 0 {
		t.Fatalf("no diagnostics expected without Options.Lint, got %v", r.Lint)
	}
}

// TestLintWarningsDoNotReject checks warning-severity findings annotate
// the result but let verification proceed.
func TestLintWarningsDoNotReject(t *testing.T) {
	tr, err := parser.ParseOne(`
Name: tautology
Pre: C u>= C
%r = and %x, C
=>
%r = and %x, C
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts
	opts.Lint = true
	r := Verify(tr, opts)
	if r.Verdict != Valid {
		t.Fatalf("want valid, got %v (err=%v)", r.Verdict, r.Err)
	}
	if len(r.Lint) == 0 || lint.HasErrors(r.Lint) {
		t.Fatalf("want warning-only diagnostics, got %v", r.Lint)
	}
}

// TestLintAcceptsSignedMaxMin checks that lint does not reject what the
// verifier proves: max and min are signed in both.
func TestLintAcceptsSignedMaxMin(t *testing.T) {
	opts := quickOpts
	opts.Lint = true
	r := run(t, `
Name: max-min
Pre: max(-1, 2) == 2 && min(-1, 2) == -1
%r = add %x, 0
=>
%r = %x
`, opts)
	if r.Verdict != Valid {
		t.Fatalf("want valid, got %v (err=%v, lint %v)", r.Verdict, r.Err, r.Lint)
	}
}
