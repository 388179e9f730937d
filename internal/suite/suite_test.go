package suite

import (
	"testing"

	"alive/internal/parser"
	"alive/internal/verify"
)

// corpusOpts keeps the full-corpus verification fast in unit tests:
// widths 4 and 8 (the bench harness uses the full default set).
var corpusOpts = verify.Options{Widths: []int{4, 8}, MaxAssignments: 4, MaxConflicts: 2_000_000}

func TestCorpusParses(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tr := e.Parse()
			if tr.Root == "" && e.File != "LoadStoreAlloca" {
				t.Fatalf("%s: missing root", e.Name)
			}
			if tr.Name != e.Name {
				t.Fatalf("parsed name %q", tr.Name)
			}
		})
	}
}

// TestAllIsACopy checks that a caller permuting All's result, as the
// benchmark's shuffled workloads do, leaves the corpus order alone.
func TestAllIsACopy(t *testing.T) {
	es := All()
	first := es[0].Name
	es[0], es[1] = es[1], es[0]
	if got := All()[0].Name; got != first {
		t.Fatalf("All()[0] = %s after permuting an earlier result, want %s", got, first)
	}
}

func TestCorpusStructure(t *testing.T) {
	byFile := ByFile()
	for _, f := range Files {
		if len(byFile[f]) == 0 {
			t.Errorf("file %s has no entries", f)
		}
	}
	// The buggy/correct split must match the paper: 2 AddSub bugs and 6
	// MulDivRem bugs, nothing else.
	bugs := map[string]int{}
	for _, e := range All() {
		if e.WantInvalid {
			bugs[e.File]++
		}
	}
	if bugs["AddSub"] != 2 || bugs["MulDivRem"] != 6 || len(bugs) != 2 {
		t.Errorf("bug distribution = %v, want AddSub:2 MulDivRem:6", bugs)
	}
	if len(Figure8()) != 8 {
		t.Errorf("Figure8 has %d entries, want 8", len(Figure8()))
	}
}

// TestCorpusVerdicts verifies the whole corpus: every entry must be
// proved correct, except the eight Figure 8 bugs, which must produce
// counterexamples. This is the ground truth behind Table 3.
func TestCorpusVerdicts(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			r := verify.Verify(e.Parse(), corpusOpts)
			switch {
			case e.WantInvalid && r.Verdict != verify.Invalid:
				t.Errorf("%s: want invalid, got %v (err=%v)", e.Name, r.Verdict, r.Err)
			case !e.WantInvalid && r.Verdict != verify.Valid:
				msg := ""
				if r.Cex != nil {
					msg = "\n" + r.Cex.String()
				}
				t.Errorf("%s: want valid, got %v (err=%v)%s", e.Name, r.Verdict, r.Err, msg)
			}
		})
	}
}

func TestFixedVariantsAllValid(t *testing.T) {
	for _, e := range Fixed() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			r := verify.Verify(e.Parse(), corpusOpts)
			if r.Verdict != verify.Valid {
				msg := ""
				if r.Cex != nil {
					msg = "\n" + r.Cex.String()
				}
				t.Errorf("%s: want valid, got %v (err=%v)%s", e.Name, r.Verdict, r.Err, msg)
			}
		})
	}
}

func TestPatchSequence(t *testing.T) {
	seq := PatchSequence()
	if len(seq) != 3 {
		t.Fatalf("want 3 revisions, got %d", len(seq))
	}
	for _, rev := range seq {
		rev := rev
		t.Run(rev.Text[:20], func(t *testing.T) {
			tr, err := parser.ParseOne(rev.Text)
			if err != nil {
				t.Fatal(err)
			}
			r := verify.Verify(tr, corpusOpts)
			if rev.WantValid && r.Verdict != verify.Valid {
				t.Errorf("revision %d should be valid, got %v", rev.Revision, r.Verdict)
			}
			if !rev.WantValid && r.Verdict != verify.Invalid {
				t.Errorf("revision %d should be invalid, got %v", rev.Revision, r.Verdict)
			}
		})
	}
}

// TestCorpusRoundTrip checks printing is a parse fixed point for every
// entry.
func TestCorpusRoundTrip(t *testing.T) {
	for _, e := range All() {
		tr := e.Parse()
		printed := tr.String()
		tr2, err := parser.ParseOne(printed)
		if err != nil {
			t.Errorf("%s: reparse failed: %v\n%s", e.Name, err, printed)
			continue
		}
		if tr2.String() != printed {
			t.Errorf("%s: printing not a fixed point:\n%s\nvs\n%s", e.Name, printed, tr2.String())
		}
	}
}
