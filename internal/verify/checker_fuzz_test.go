package verify_test

import (
	"context"
	"slices"
	"testing"

	"alive/internal/ir"
	"alive/internal/parser"
	"alive/internal/suite"
	"alive/internal/verify"
)

// flagSlot is one flag a binary operator of a template can carry.
type flagSlot struct {
	in   *ir.BinOp
	flag ir.Flags
}

// flagSlots lists the nsw, nuw and exact positions of tr, source first.
func flagSlots(tr *ir.Transform) []flagSlot {
	var out []flagSlot
	for _, in := range append(slices.Clone(tr.Source), tr.Target...) {
		b, ok := in.(*ir.BinOp)
		if !ok {
			continue
		}
		for _, f := range []ir.Flags{ir.NSW, ir.NUW, ir.Exact} {
			if ir.ValidFlags(b.Op)&f != 0 {
				out = append(out, flagSlot{b, f})
			}
		}
	}
	return out
}

// checkerWidths are the widths FuzzChecker draws from: bit i of its
// width byte selects checkerWidths[i], and no bit selects {4}.
var checkerWidths = []int{4, 8, 1}

// FuzzChecker differentially checks verify.Checker against one-shot
// verification. One Checker answers a sequence of flag assignments of
// one transform, as attribute inference does, and each verdict — with
// the counterexample's kind when invalid — must equal a fresh
// verify.Verify of the same flags. Bit i of each mask byte sets or
// clears slot i of the transform's first eight flag slots. With more
// than one width, type assignments may differ only in unnamed values
// (an undef or a literal of free width), and each must keep its own
// session. The seeds are the corpus transforms attribute inference runs
// on, each with its flags as written, none, and all, at widths {1,4},
// plus one transform whose assignments differ only in an undef's width.
func FuzzChecker(f *testing.F) {
	for _, e := range suite.All() {
		if e.WantInvalid {
			continue
		}
		slots := flagSlots(e.Parse())
		if len(slots) == 0 {
			continue
		}
		var written byte
		for i, s := range slots {
			if i < 8 && s.in.Flags&s.flag != 0 {
				written |= 1 << i
			}
		}
		f.Add(e.Text, byte(0b101), []byte{written, 0, 0xff})
	}
	f.Add("%r = add %x, %y\n=>\n%c = icmp ult undef, 3\n%a = add %x, %y\n%n = sub 0, %y\n%b = sub %x, %n\n%r = select %c, %a, %b\n",
		byte(0b101), []byte{0, 0b11, 0b0100, 0})
	f.Fuzz(func(t *testing.T, src string, wbits byte, masks []byte) {
		tr, err := parser.ParseOne(src)
		if err != nil {
			return
		}
		slots := flagSlots(tr)
		if len(slots) == 0 {
			return
		}
		if len(masks) > 8 {
			masks = masks[:8]
		}
		var widths []int
		for i, w := range checkerWidths {
			if wbits&(1<<i) != 0 {
				widths = append(widths, w)
			}
		}
		if len(widths) == 0 {
			widths = []int{4}
		}
		opts := verify.Options{Widths: widths, MaxAssignments: 4, MaxConflicts: 20000}
		c := verify.NewChecker(tr, opts)
		for step, m := range masks {
			for i, s := range slots[:min(len(slots), 8)] {
				if m&(1<<i) != 0 {
					s.in.Flags |= s.flag
				} else {
					s.in.Flags &^= s.flag
				}
			}
			got := c.Check(context.Background())
			want := verify.Verify(tr, opts)
			if got.Reason == verify.ReasonConflictBudget || want.Reason == verify.ReasonConflictBudget {
				// A conflict budget may run out on one side only: the
				// Checker's warm session starts from what it learned.
				// Any other Unknown, a recovered panic above all, must
				// match.
				continue
			}
			if got.Verdict != want.Verdict || got.Reason != want.Reason {
				t.Fatalf("step %d, widths %v, mask %08b: Checker %v/%v (%v), fresh Verify %v/%v for:\n%s", step, widths, m, got.Verdict, got.Reason, got.Err, want.Verdict, want.Reason, tr)
			}
			if got.Verdict == verify.Invalid && got.Cex.Kind != want.Cex.Kind {
				t.Fatalf("step %d, widths %v, mask %08b: Checker counterexample kind %d, fresh Verify %d for:\n%s", step, widths, m, got.Cex.Kind, want.Cex.Kind, tr)
			}
		}
	})
}
