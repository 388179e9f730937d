package verify

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"alive/internal/ir"
	"alive/internal/smt"
	"alive/internal/suite"
	"alive/internal/typing"
)

// termIDFingerprint builds the correctness conditions of every corpus
// transform at widths 4,8 under its most preferred type assignment, each
// on a fresh builder, and renders one line per transform: the number of
// terms the builder made (a variable made last gets the next ID) and an
// FNV-1a hash of the (ID, rendering) sequence of every node the
// conditions reach, depth first, then of each condition's own ID.
func termIDFingerprint() []string {
	var out []string
	for _, e := range suite.All() {
		tr := e.Parse()
		asgs, err := typing.Infer(tr, typing.Options{Widths: []int{4, 8}, MaxAssignments: 4})
		if err != nil || len(asgs) == 0 {
			out = append(out, fmt.Sprintf("%s: no assignment", e.Name))
			continue
		}
		if root := tr.SourceValue(tr.Root); root != nil {
			typing.SortByPreference(asgs, root)
		}
		b := smt.NewBuilder()
		_, conds, err := buildConditions(b, tr, asgs[0])
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", e.Name, err))
			continue
		}
		h := fnv.New64a()
		seen := map[*smt.Term]bool{}
		var walk func(u *smt.Term)
		walk = func(u *smt.Term) {
			if seen[u] {
				return
			}
			seen[u] = true
			for _, a := range u.Args {
				walk(a)
			}
			fmt.Fprintf(h, "%d %s\n", u.ID(), u)
		}
		for _, c := range conds {
			walk(c.body)
			fmt.Fprintf(h, "condition %d\n", c.body.ID())
		}
		terms := b.BoolVar("termids.probe").ID() - 1
		out = append(out, fmt.Sprintf("%s: %d terms %d conds %016x", e.Name, terms, len(conds), h.Sum64()))
	}
	return out
}

// TestTermIDGolden pins the builder's ID assignment on the corpus. IDs
// order the arguments of And, Or and the commutative operators, and the
// bit-blaster numbers its variables in the order terms reach it, so a
// builder that made the same terms in another order would change every
// search. testdata/termids.golden changes only with a change that
// means to build different terms.
func TestTermIDGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/termids.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := termIDFingerprint()
	if len(got) != len(want) {
		t.Fatalf("%d transforms, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d transforms differ", bad, len(got))
	}
}

// TestVerifyAllocations bounds the objects one small verification
// allocates: AddSub:add-xor-signbit at widths 4,8, which types, builds
// its conditions, bit-blasts, preprocesses and searches. The builder's
// cache hits, the CNF stage's clauses and occurrence lists, the core's
// first watch-list storage and the telemetry arithmetic allocate nothing
// per item, and the bit-blaster hands its clauses over from a buffer of
// its own, so what remains grows with the terms and gates made. The
// bound is about 10% over the 872 objects this took when it was set.
func TestVerifyAllocations(t *testing.T) {
	var tr *ir.Transform
	for _, e := range suite.All() {
		if e.Name == "AddSub:add-xor-signbit" {
			tr = e.Parse()
		}
	}
	if tr == nil {
		t.Fatal("AddSub:add-xor-signbit is not in the corpus")
	}
	if r := Verify(tr, quickOpts); r.Verdict != Valid {
		t.Fatalf("verdict %v, want valid", r.Verdict)
	}
	n := testing.AllocsPerRun(5, func() { Verify(tr, quickOpts) })
	if n > 960 {
		t.Errorf("verifying AddSub:add-xor-signbit allocates %.0f objects, want at most 960", n)
	}
	t.Logf("%.0f objects", n)
}
