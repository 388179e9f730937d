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

// heavySeeds names the conflict-heaviest corpus transforms from the
// perf baseline (BENCH_verify.json): their queries restart often and
// leave the most learnt clauses behind for the next query.
var heavySeeds = map[string]bool{
	"MulDivRem:udiv-udiv-const":   true,
	"MulDivRem:srem-of-nsw-mul":   true,
	"AddSub:add-mul-factor":       true,
	"MulDivRem:sdiv-of-nsw-mul":   true,
	"MulDivRem:mul-nuw-nuw-const": true,
	"Shifts:shl-mul-combine":      true,
	"MulDivRem:mul-shl-hoist":     true,
	"MulDivRem:urem-narrow-zext":  true,
	"MulDivRem:mul-neg-rhs":       true,
	"AddSub:sub-from-zero-mul":    true,
}

// FuzzIncremental differentially checks session reuse on real
// verification-condition encodings: every VC body of a type assignment
// is solved twice, once through one shared solver that answers the
// whole query stream (queries as assumption flips over a shared core
// and bit-blaster — exactly what verifyOne does per assignment) and
// once by a new solver per query, whose session holds that query
// alone. Decided statuses must agree (a retired query's guarded
// clauses can never constrain a later query), and every Sat model must
// satisfy its formula under concrete evaluation — sessions extract
// models without reconstruction, so a frozen-variable leak in the
// incremental CNF preprocessor shows up here as an invalid model.
func FuzzIncremental(f *testing.F) {
	for i, e := range suite.All() {
		if heavySeeds[e.Name] || i%7 == 0 {
			f.Add(e.Text)
		}
	}
	f.Add("%r = mul i8 %x, 8\n=>\n%r = shl i8 %x, 3\n")
	f.Add("Pre: isPowerOf2(C1)\n%r = udiv %x, C1\n=>\n%r = lshr %x, log2(C1)\n")
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
			type query struct {
				body  *smt.Term
				miter bool
			}
			var bodies []query
			addBody := func(extra *smt.Term, miter bool) {
				parts := append(conjs[:len(conjs):len(conjs)], extra)
				bodies = append(bodies, query{b.And(parts...), miter})
			}
			if se.Val != nil && te.Val != nil {
				addBody(b.Not(b.Eq(se.Val, te.Val)), true)
				addBody(b.Eq(se.Val, te.Val), false)
			}
			if se.Def != nil && te.Def != nil {
				addBody(b.And(se.Def, b.Not(te.Def)), false)
			}
			// One session answers the whole query stream, like verifyOne
			// does for the conditions of a type assignment — value
			// disequalities marked as miters so bit-slicing is covered.
			shared := solver.Solver{MaxConflicts: 20000}
			for _, q := range bodies {
				body := q.body
				shared.Miter = q.miter
				inc := shared.Check(b, body)
				// The fresh leg solves each query whole, never bit-sliced,
				// so it also cross-checks the shared leg's slice plans.
				fresh := solver.Solver{MaxConflicts: 20000}
				dir := fresh.Check(b, body)
				if inc.Status == solver.Unknown || dir.Status == solver.Unknown {
					continue
				}
				if inc.Status != dir.Status {
					t.Fatalf("status %v shared solver, %v fresh solver, for body of:\n%s", inc.Status, dir.Status, src)
				}
				for _, leg := range []struct {
					name string
					res  solver.Result
				}{{"shared", inc}, {"fresh", dir}} {
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
