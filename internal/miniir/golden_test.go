package miniir

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"alive/internal/suite"
)

// corpusTransforms compiles every correct corpus entry that Compile
// accepts, in corpus order: the order decides which of several matching
// transforms fires.
func corpusTransforms(tb testing.TB) []*CompiledTransform {
	tb.Helper()
	var cts []*CompiledTransform
	for _, e := range suite.All() {
		if e.WantInvalid {
			continue
		}
		if ct, err := Compile(e.Parse()); err == nil {
			cts = append(cts, ct)
		}
	}
	if len(cts) != 219 {
		tb.Fatalf("compiled %d corpus transforms, want 219", len(cts))
	}
	return cts
}

// passFingerprint pins what a pass did to a module: the firing counts and
// the exact text of every optimized function.
type passFingerprint struct {
	fired, instrs, cost int
	firings             uint64 // FNV-64a of "name count" lines, sorted by name
	text                uint64 // FNV-64a of every function's String(), in order
}

func fingerprint(p *Pass, m *Module, fired int) passFingerprint {
	names := make([]string, 0, len(p.Fired))
	for name := range p.Fired {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, p.Fired[name])
	}
	fp := passFingerprint{fired: fired, instrs: m.NumInstrs(), cost: m.Cost(), firings: h.Sum64()}
	h = fnv.New64a()
	for _, f := range m.Funcs {
		h.Write([]byte(f.String()))
	}
	fp.text = h.Sum64()
	return fp
}

// TestPassGolden pins the rewrites of the full compiled corpus on three
// generated modules: which transforms fire, how often, and the exact
// optimized text. A change to the pass's matching, analyses or cleanup
// that changes any rewrite shows up here.
func TestPassGolden(t *testing.T) {
	want := map[int64]passFingerprint{
		1: {fired: 1592, instrs: 1438, cost: 2385, firings: 0x244f94fdf5641435, text: 0xa83b4ed4ebb6b275},
		2: {fired: 1314, instrs: 1583, cost: 2590, firings: 0x42f19aa1f543d849, text: 0xc28e4a897fbff024},
		3: {fired: 1864, instrs: 1594, cost: 2471, firings: 0x4b5e3626cf4257e6, text: 0x36a00da7f3b630d4},
	}
	cts := corpusTransforms(t)
	for seed := int64(1); seed <= 3; seed++ {
		m := Generate(GenConfig{Funcs: 400, InstrsPerFunc: 60, Seed: seed})
		p := NewPass(cts)
		fired := p.RunModule(m)
		got := fingerprint(p, m, fired)
		if got != want[seed] {
			t.Errorf("seed %d: fingerprint %+v, want %+v", seed, got, want[seed])
		}
	}
}
