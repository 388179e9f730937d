package verify_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"alive/internal/absint"
	"alive/internal/bv"
	"alive/internal/parser"
	"alive/internal/smt"
	"alive/internal/suite"
	"alive/internal/typing"
	"alive/internal/vcgen"
	"alive/internal/verify"
)

// FuzzVerify runs the full pipeline — parse, type, encode, solve — on
// arbitrary text at small widths under a tight resource budget. The
// contract: whatever the input, VerifyContext returns a Result; any
// internal panic must surface as Unknown with ReasonPanic (the recover
// seam), and every Unknown verdict must carry a structured reason.
func FuzzVerify(f *testing.F) {
	for i, e := range suite.All() {
		if i%7 == 0 { // a spread of seeds, not the whole corpus
			f.Add(e.Text)
		}
	}
	f.Add("%r = add %x, %y\n=>\n%r = add %y, %x\n")
	f.Add("Pre: isPowerOf2(C1)\n%r = udiv %x, C1\n=>\n%r = lshr %x, log2(C1)\n")
	f.Add("%r = lshr %x, 1\n=>\n%r = ashr %x, 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := parser.ParseOne(src)
		if err != nil {
			return
		}
		opts := verify.Options{
			Widths:         []int{1, 4},
			MaxAssignments: 2,
			MaxConflicts:   2000,
			Timeout:        2 * time.Second,
		}
		res := verify.VerifyContext(context.Background(), tr, opts)
		if res.Verdict == verify.Unknown && res.Reason == verify.ReasonNone {
			t.Fatalf("Unknown verdict without a reason for:\n%s", src)
		}
		if res.Reason == verify.ReasonPanic && res.PanicStack == "" {
			t.Fatalf("panic verdict lost its stack for:\n%s", src)
		}
	})
}

// FuzzAbsint differentially checks the abstract-interpretation domain
// against concrete evaluation over real verification-condition
// encodings: for every term of the encoding and every sampled model,
// the concrete value must lie inside the abstract one; and when a
// model satisfies the precondition conjuncts, the Refined analysis must
// not claim a contradiction and must still contain every concrete
// value.
func FuzzAbsint(f *testing.F) {
	for i, e := range suite.All() {
		if i%7 == 0 { // a spread of seeds, not the whole corpus
			f.Add(e.Text, uint64(i))
		}
	}
	f.Add("%a = and %x, 7\n%c = icmp ugt %a, 8\n%r = select %c, %y, %z\n=>\n%r = %z\n", uint64(1))
	f.Add("Pre: C u< 16 && C u< 32\n%r = and %x, C\n=>\n%r = and C, %x\n", uint64(2))
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		tr, err := parser.ParseOne(src)
		if err != nil {
			return
		}
		asgs, err := typing.Infer(tr, typing.Options{Widths: []int{1, 4}, MaxAssignments: 2})
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, asg := range asgs {
			b := smt.NewBuilder()
			enc, err := vcgen.Encode(b, tr, asg)
			if err != nil {
				continue
			}
			var terms []*smt.Term
			add := func(ts ...*smt.Term) {
				for _, x := range ts {
					if x != nil {
						terms = append(terms, x)
					}
				}
			}
			add(enc.Pre)
			add(enc.PreParts...)
			for _, side := range []map[string]vcgen.InstrEnc{enc.Src, enc.Tgt} {
				for _, e := range side {
					add(e.Val, e.Def, e.Poison)
				}
			}
			conjs := append(append([]*smt.Term{}, enc.PreParts...), enc.SideCons...)

			vars := map[string]*smt.Term{}
			for _, x := range terms {
				for _, v := range x.Vars() {
					vars[v.Name] = v
				}
			}
			for trial := 0; trial < 4; trial++ {
				m := smt.NewModel()
				for name, v := range vars {
					if v.IsBool() {
						m.Bools[name] = rng.Intn(2) == 1
					} else {
						m.BVs[name] = bv.New(v.Width, rng.Uint64())
					}
				}
				plain := absint.New()
				for _, x := range terms {
					got := smt.Eval(x, m)
					av := plain.Of(x)
					if got.IsBool {
						if !av.ContainsBool(got.B) {
							t.Fatalf("abstract value %v excludes concrete %v for %s in:\n%s", av, got.B, x, src)
						}
					} else if !av.ContainsBV(got.V) {
						t.Fatalf("abstract value %v excludes concrete %s for %s in:\n%s", av, got.V, x, src)
					}
				}
				sat := true
				for _, c := range conjs {
					if !smt.Eval(c, m).B {
						sat = false
						break
					}
				}
				if !sat {
					continue
				}
				an := absint.Refined(conjs...)
				if an.Contradiction() {
					t.Fatalf("Refined claims contradiction but a model satisfies the conjuncts in:\n%s", src)
				}
				for _, x := range terms {
					got := smt.Eval(x, m)
					av := an.Of(x)
					if got.IsBool {
						if !av.ContainsBool(got.B) {
							t.Fatalf("refined value %v excludes concrete %v for %s in:\n%s", av, got.B, x, src)
						}
					} else if !av.ContainsBV(got.V) {
						t.Fatalf("refined value %v excludes concrete %s for %s in:\n%s", av, got.V, x, src)
					}
				}
			}
		}
	})
}
