package miniir

import (
	"math/rand"
	"runtime"
	"testing"

	"alive/internal/bv"
)

// FuzzPass checks that the full pass refines every function it rewrites,
// by the optimizer workload's rule: on each of four random inputs where
// the original is defined, the optimized function is defined too, and
// it returns the same value unless the original returned poison. The
// fuzzer picks the module (seed, 1-20 functions of 10-60 instructions)
// and the subset of the compiled corpus in the pass; mask bit i keeps
// transform i, and an empty mask keeps them all. A rewrite built from a
// binding left over by an earlier, failed match shows up here on inputs
// no golden hash covers.
func FuzzPass(f *testing.F) {
	cts := corpusTransforms(f)
	f.Add(int64(1), uint8(19), uint8(50), []byte{})
	f.Add(int64(2), uint8(7), uint8(30), []byte{0x55})
	f.Add(int64(3), uint8(0), uint8(0), []byte{0xff, 0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, seed int64, funcs, instrs uint8, mask []byte) {
		var subset []*CompiledTransform
		for i, ct := range cts {
			if len(mask) == 0 || mask[(i/8)%len(mask)]>>(i%8)&1 == 1 {
				subset = append(subset, ct)
			}
		}
		m := Generate(GenConfig{Funcs: 1 + int(funcs)%20, InstrsPerFunc: 10 + int(instrs)%51, Seed: seed})
		type reference struct {
			in   []bv.Vec
			want ExecValue
		}
		rng := rand.New(rand.NewSource(seed))
		refs := make([][]reference, len(m.Funcs))
		for i, fn := range m.Funcs {
			for range 4 {
				in := RandomInputs(fn, rng)
				if want, err := Interpret(fn, in); err == nil {
					refs[i] = append(refs[i], reference{in, want})
				}
			}
		}
		NewPass(subset).RunModule(m)
		for i, fn := range m.Funcs {
			if err := fn.Verify(); err != nil {
				t.Fatalf("optimized function is malformed: %v\n%s", err, fn)
			}
			for _, ref := range refs[i] {
				got, err := Interpret(fn, ref.in)
				switch {
				case err != nil:
					t.Fatalf("optimization introduced undefined behavior on %v: %v\n%s", ref.in, err, fn)
				case ref.want.Poison:
					// A poison result may be refined to any value.
				case got.Poison:
					t.Fatalf("optimization introduced poison on %v\n%s", ref.in, fn)
				case !got.V.Eq(ref.want.V):
					t.Fatalf("optimization changed the result on %v from %s to %s\n%s", ref.in, ref.want.V, got.V, fn)
				}
			}
		}
	})
}

// TestPassAllocations guards the pass's allocation rate. Matching binds
// into storage the pass owns, analyses are computed only when a
// precondition reads them, and cleanup after a rewrite allocates
// nothing, so what remains is mostly the instructions rewrites build.
func TestPassAllocations(t *testing.T) {
	cts := corpusTransforms(t)

	// After one run the module is at the pass's fixed point, except for
	// two pairs of mutually inverse transforms (add-minus-one-to-sub and
	// sub-const-to-add, demorgan-of-and and demorgan-or) that fire again
	// on every run. Nearly every scan fails there, so a call allocates
	// almost nothing.
	p := NewPass(cts)
	m := Generate(GenConfig{Funcs: 400, InstrsPerFunc: 60, Seed: 1})
	p.RunModule(m)
	funcs := m.Funcs[:50]
	perCall := testing.AllocsPerRun(5, func() {
		for _, f := range funcs {
			p.RunFunction(f)
		}
	}) / float64(len(funcs))
	if perCall >= 10 {
		t.Errorf("RunFunction at the fixed point: %.1f allocations per call, want < 10", perCall)
	}

	// A fresh module: the first run warms the pass up, the second counts.
	p = NewPass(cts)
	mods := []*Module{
		Generate(GenConfig{Funcs: 400, InstrsPerFunc: 60, Seed: 2}),
		Generate(GenConfig{Funcs: 400, InstrsPerFunc: 60, Seed: 2}),
	}
	next := 0
	total := testing.AllocsPerRun(1, func() {
		p.RunModule(mods[next])
		next++
	})
	if total >= 10000 {
		t.Errorf("RunModule over 400 fresh functions: %.0f allocations, want < 10000", total)
	}
	t.Logf("%.1f allocations per call at the fixed point, %.0f over a fresh module", perCall, total)
}

// BenchmarkPass times one pass of the compiled corpus over a fresh
// module of the optimizer workload's size, 20,000 functions of 60
// instructions, and reports what the pass alone allocated.
func BenchmarkPass(b *testing.B) {
	cts := corpusTransforms(b)
	var mib, gcs, fired float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := Generate(GenConfig{Funcs: 20000, InstrsPerFunc: 60, Seed: 1})
		p := NewPass(cts)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		fired += float64(p.RunModule(m))
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mib += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		gcs += float64(after.NumGC - before.NumGC)
	}
	n := float64(b.N)
	b.ReportMetric(mib/n, "MiB/op")
	b.ReportMetric(gcs/n, "gcs/op")
	b.ReportMetric(fired/n, "fired/op")
}
