package attrs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alive/internal/suite"
	"alive/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenOpts are the attr-infer benchmark workload's verifier options.
var goldenOpts = verify.Options{Widths: []int{4}, MaxAssignments: 4}

// bits renders an assignment as one 0/1 character per slot.
func bits(a Assignment) string {
	var sb strings.Builder
	for _, on := range a {
		if on {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// renderOutcome is one golden line: everything Infer decides for t.
func renderOutcome(name string, r *Result) string {
	slots := make([]string, len(r.Slots))
	for i, s := range r.Slots {
		slots[i] = s.String()
	}
	feasible := make([]string, len(r.Feasible))
	for i, a := range r.Feasible {
		feasible[i] = bits(a)
	}
	return fmt.Sprintf("%s | slots=[%s] best=%s feasible=[%s] checks=%d weakened=%v strengthened=%v\n",
		name, strings.Join(slots, "; "), bits(r.Best), strings.Join(feasible, " "),
		r.Checks, r.SourceWeakened, r.TargetStrengthened)
}

// TestGoldenInference runs inference over every valid corpus transform
// with an attribute slot and compares each outcome (slots, Best,
// Feasible, Checks and the weakened/strengthened classification) with
// testdata/infer.golden. Run with -update to regenerate; a change that
// only makes inference cheaper must leave the file as it is.
func TestGoldenInference(t *testing.T) {
	var sb strings.Builder
	weakened, strengthened := 0, 0
	for _, e := range suite.All() {
		if e.WantInvalid {
			continue
		}
		tr := e.Parse()
		if len(slots(tr)) == 0 {
			continue
		}
		r, err := Infer(tr, goldenOpts)
		if err != nil {
			fmt.Fprintf(&sb, "%s | error: %v\n", e.Name, err)
			continue
		}
		if r.SourceWeakened {
			weakened++
		}
		if r.TargetStrengthened {
			strengthened++
		}
		sb.WriteString(renderOutcome(e.Name, r))
	}
	fmt.Fprintf(&sb, "total weakened=%d strengthened=%d\n", weakened, strengthened)
	got := sb.String()
	golden := filepath.Join("testdata", "infer.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestGoldenInference -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d differs from %s:\n got  %s\n want %s", i+1, golden, g, w)
			}
		}
	}
}
