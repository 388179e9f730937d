package verify_test

import (
	"testing"

	"alive/internal/parser"
	"alive/internal/smt"
	"alive/internal/solver"
	"alive/internal/suite"
	"alive/internal/typing"
	"alive/internal/vcgen"
)

// FuzzPreprocess differentially checks the CNF preprocessor on real
// verification-condition encodings: for each VC-shaped formula the
// solver is run with preprocessing on and off. Decided statuses must
// agree (preprocessing is equisatisfiable by construction), and every
// Sat model — including the preprocessed one, read straight off the
// frozen variables with no reconstruction — must actually satisfy the
// formula under concrete evaluation.
func FuzzPreprocess(f *testing.F) {
	for i, e := range suite.All() {
		if i%5 == 0 { // a spread of seeds, not the whole corpus
			f.Add(e.Text)
		}
	}
	f.Add("%r = add %x, %y\n=>\n%r = add %y, %x\n")
	f.Add("Pre: isPowerOf2(C1)\n%r = udiv %x, C1\n=>\n%r = lshr %x, log2(C1)\n")
	f.Add("%a = and %x, 7\n%c = icmp ugt %a, 8\n%r = select %c, %y, %z\n=>\n%r = %z\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := parser.ParseOne(src)
		if err != nil {
			return
		}
		asgs, err := typing.Infer(tr, typing.Options{Widths: []int{1, 4}, MaxAssignments: 2})
		if err != nil {
			return
		}
		for _, asg := range asgs {
			b := smt.NewBuilder()
			enc, err := vcgen.Encode(b, tr, asg)
			if err != nil {
				continue
			}
			se, te := enc.Src[tr.Root], enc.Tgt[tr.Root]
			conjs := append(append([]*smt.Term{}, enc.PreParts...), enc.SideCons...)
			var bodies []*smt.Term
			addBody := func(extra *smt.Term) {
				parts := append(conjs[:len(conjs):len(conjs)], extra)
				bodies = append(bodies, b.And(parts...))
			}
			if se.Val != nil && te.Val != nil {
				// The two shapes of a correctness query: "some input
				// distinguishes source from target" and its complement.
				addBody(b.Not(b.Eq(se.Val, te.Val)))
				addBody(b.Eq(se.Val, te.Val))
			}
			if se.Def != nil && te.Def != nil {
				addBody(b.And(se.Def, b.Not(te.Def)))
			}
			for _, body := range bodies {
				run := func(disable bool) solver.Result {
					s := solver.Solver{MaxConflicts: 20000, DisablePreprocess: disable}
					return s.Check(b, body)
				}
				on, off := run(false), run(true)
				if on.Status == solver.Unknown || off.Status == solver.Unknown {
					continue
				}
				if on.Status != off.Status {
					t.Fatalf("status %v with preprocessing, %v without, for body of:\n%s", on.Status, off.Status, src)
				}
				for _, leg := range []struct {
					name string
					res  solver.Result
				}{{"preprocessed", on}, {"direct", off}} {
					if leg.res.Status != solver.Sat {
						continue
					}
					if v := smt.Eval(body, leg.res.Model); !v.B {
						t.Fatalf("%s model does not satisfy the formula for:\n%s", leg.name, src)
					}
				}
			}
		}
	})
}
