package alive_test

// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see the per-experiment index in DESIGN.md) plus the ablation benches
// for the design decisions called out there. Run with
//
//	go test -bench=. -benchmem
//
// and see cmd/alive-bench for the full text reports recorded in
// EXPERIMENTS.md.

import (
	"context"
	"testing"

	"alive"
	"alive/internal/bench"
	"alive/internal/miniir"
	"alive/internal/smt"
	"alive/internal/solver"
	"alive/internal/suite"
	"alive/internal/verify"
)

func benchConfig() *bench.Config {
	cfg, err := bench.NewConfig("4,8")
	if err != nil {
		panic(err)
	}
	// Keep per-iteration cost moderate; cmd/alive-bench uses the larger
	// defaults.
	cfg.WorkloadFuncs = 120
	cfg.InstrsPerFunc = 50
	return cfg
}

// BenchmarkTable3VerifyCorpus regenerates Table 3: verify the whole
// corpus and check the 8-bug split.
func BenchmarkTable3VerifyCorpus(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		out := bench.Table3(cfg)
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig5Counterexample regenerates Figure 5 (the PR21245
// counterexample at i4).
func BenchmarkFig5Counterexample(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		out := bench.Figure5(cfg)
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig8BugDetection regenerates Figure 8: all eight bugs detected
// and all eight fixes proved.
func BenchmarkFig8BugDetection(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		out := bench.Figure8(cfg)
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkSec62Patches regenerates the Section 6.2 patch sequence.
func BenchmarkSec62Patches(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_ = bench.Patches(cfg)
	}
}

// BenchmarkAttrInference regenerates Section 6.3 over a corpus sample.
func BenchmarkAttrInference(b *testing.B) {
	cfg := benchConfig()
	cfg.Widths = []int{4}
	for i := 0; i < b.N; i++ {
		_ = bench.AttrInference(cfg)
	}
}

// BenchmarkFig9Firings regenerates Figure 9: firing counts over the
// synthetic workload.
func BenchmarkFig9Firings(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_ = bench.Figure9(cfg)
	}
}

// BenchmarkCompileTime regenerates the Section 6.4 compile-time
// comparison.
func BenchmarkCompileTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_ = bench.CompileTime(cfg)
	}
}

// BenchmarkRunTime regenerates the Section 6.4 execution-time comparison.
func BenchmarkRunTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_ = bench.RunTime(cfg)
	}
}

// --- ablation benches (design decisions from DESIGN.md) ---

// BenchmarkSimplificationOn/Off measure the effect of constructor-time
// term simplification on verification time.
func BenchmarkSimplificationOn(b *testing.B) {
	benchSimplification(b, false)
}

func BenchmarkSimplificationOff(b *testing.B) {
	benchSimplification(b, true)
}

func benchSimplification(b *testing.B, disable bool) {
	t, err := alive.ParseOne(`
Pre: C1 & C2 == 0 && MaskedValueIsZero(%V, ~C1)
%t0 = or %B, %V
%t1 = and %t0, C1
%t2 = and %B, C2
%R = or %t1, %t2
=>
%R = and %t0, (C1 | C2)
`)
	if err != nil {
		b.Fatal(err)
	}
	opts := alive.Options{Widths: []int{8}, DisableSimplify: disable}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(t, opts); r.Verdict != alive.Valid {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkUndefCEGIS/Expansion compare the exists-forall strategies on
// the paper's undef example: counterexample-guided instantiation versus
// full expansion of the universal variable.
func BenchmarkUndefCEGIS(b *testing.B) {
	t, err := alive.ParseOne(`
%r = select undef, i8 -1, 0
=>
%r = ashr undef, 7
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(t, alive.Options{Widths: []int{8}}); r.Verdict != alive.Valid {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkUndefExpansion(b *testing.B) {
	// Full expansion: conjoin the body over every value of the universal
	// variable (2^8 instances at width 8).
	for i := 0; i < b.N; i++ {
		bld := smt.NewBuilder()
		u2 := bld.Var("u2", 8)
		sol := solver.Solver{}
		// ∃u2 ∀u1: ite(u1,-1,0) != (u2 >> 7) — expand u1 ∈ {false,true}.
		tgt := bld.Ashr(u2, bld.ConstUint(8, 7))
		body := bld.And(
			bld.Ne(bld.ConstInt(8, -1), tgt),
			bld.Ne(bld.ConstUint(8, 0), tgt),
		)
		if r := sol.Check(bld, body); r.Status != solver.Unsat {
			b.Fatal("expansion check failed")
		}
	}
}

// BenchmarkMemoryEncoding exercises the eager-Ackermannization memory
// pipeline on a store-to-load forwarding proof.
func BenchmarkMemoryEncoding(b *testing.B) {
	t, err := alive.ParseOne(`
%p = alloca i8, 1
store %v, %p
%x = load %p
=>
%x = %v
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(t, alive.Options{Widths: []int{8}, MaxAssignments: 1}); r.Verdict != alive.Valid {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkVerifySingle measures a typical single-transformation
// verification (the paper: "Alive usually takes a few seconds" with Z3).
func BenchmarkVerifySingle(b *testing.B) {
	t, err := alive.ParseOne(`
%1 = xor %x, -1
%2 = add %1, C
=>
%2 = sub C-1, %x
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(t, alive.Options{}); r.Verdict != alive.Valid {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkCompileTransforms measures compiling the corpus into mini-IR
// matchers (the stand-in for building the generated C++).
func BenchmarkCompileTransforms(b *testing.B) {
	entries := suite.All()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, e := range entries {
			if e.WantInvalid {
				continue
			}
			if _, err := miniir.Compile(e.Parse()); err == nil {
				n++
			}
		}
		if n == 0 {
			b.Fatal("nothing compiled")
		}
	}
}

// BenchmarkWidthScaling measures verification cost growth with bit width
// on two shift transforms: a shl-ashr fold, and the corpus's
// Shifts:lshr-exact-exact-sum, whose i64 queries are the long pole of a
// run at the CLI's default widths. One leg times a CDCL or
// preprocessing change there without the rest of the corpus:
//
//	go test -run '^$' -bench 'WidthScaling/lshr-exact-exact-sum/i64'
func BenchmarkWidthScaling(b *testing.B) {
	var shiftSum string
	for _, e := range suite.All() {
		if e.Name == "Shifts:lshr-exact-exact-sum" {
			shiftSum = e.Text
		}
	}
	for _, tc := range []struct{ name, src string }{
		{"shl-ashr", `
Pre: C1 u>= C2
%0 = shl nsw %a, C1
%1 = ashr %0, C2
=>
%1 = shl nsw %a, C1-C2
`},
		{"lshr-exact-exact-sum", shiftSum},
	} {
		t, err := alive.ParseOne(tc.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{4, 8, 16, 32, 64} {
			w := w
			b.Run(tc.name+"/"+benchName(w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if r := alive.Verify(t, alive.Options{Widths: []int{w}}); r.Verdict != alive.Valid {
						b.Fatal("verification failed")
					}
				}
			})
		}
	}
}

func benchName(w int) string {
	return "i" + string(rune('0'+w/10)) + string(rune('0'+w%10))
}

// BenchmarkCorpusDriverTelemetryOff/On bound the telemetry overhead
// contract: the same corpus slice through the parallel driver with no
// tracer versus a full tracer attached. The DESIGN.md contract is that
// the On/Off delta stays within 2%; the counters themselves are always
// on in both legs.
func BenchmarkCorpusDriverTelemetryOff(b *testing.B) {
	benchCorpusDriver(b, false)
}

func BenchmarkCorpusDriverTelemetryOn(b *testing.B) {
	benchCorpusDriver(b, true)
}

func benchCorpusDriver(b *testing.B, trace bool) {
	ts := suite.ParseAll()[:48]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := alive.Options{Widths: []int{4, 8}, MaxAssignments: 2}
		if trace {
			opts.Trace = alive.NewTracer()
		}
		_, stats := alive.RunCorpus(context.Background(), ts, alive.CorpusOptions{
			Verify:  opts,
			Workers: 4,
		})
		if stats.Completed != len(ts) {
			b.Fatalf("completed %d/%d", stats.Completed, len(ts))
		}
	}
}

// BenchmarkFullCorpusVerdict verifies one representative entry per file.
func BenchmarkFullCorpusVerdict(b *testing.B) {
	byFile := suite.ByFile()
	opts := verify.Options{Widths: []int{4, 8}, MaxAssignments: 2}
	for i := 0; i < b.N; i++ {
		for _, f := range suite.Files {
			e := byFile[f][0]
			r := verify.Verify(e.Parse(), opts)
			if r.Verdict == verify.Unknown {
				b.Fatalf("%s unknown", e.Name)
			}
		}
	}
}
