// Optimizer: build a mini-IR function, apply the verified corpus as a
// peephole pass (the executable counterpart of the generated C++), and
// show the before/after IR, the firing counts, and the static cost. It
// exits 1 when the optimized function computes a wrong result.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"alive/internal/bv"
	"alive/internal/ir"
	"alive/internal/miniir"
	"alive/internal/suite"
)

func main() {
	// Hand-build a function full of optimizable idioms:
	//   r = ((x ^ -1) + 51) + (y*8)/8 + (z & z) + dead
	b := miniir.NewBuilder("demo", 32, 32, 32)
	x, y, z := b.Param(0), b.Param(1), b.Param(2)

	notX := b.Bin(miniir.OpXor, 0, x, b.ConstInt(32, -1))
	t1 := b.Bin(miniir.OpAdd, 0, notX, b.ConstInt(32, 51))
	y8 := b.Bin(miniir.OpMul, 0, y, b.ConstInt(32, 8))
	t2 := b.Bin(miniir.OpUDiv, 0, y8, b.ConstInt(32, 8))
	t3 := b.Bin(miniir.OpAnd, 0, z, z)
	dead := b.Bin(miniir.OpAdd, 0, x, b.ConstInt(32, 0))
	_ = dead
	s1 := b.Bin(miniir.OpAdd, 0, t1, t2)
	s2 := b.Bin(miniir.OpAdd, 0, s1, t3)
	f := b.Ret(s2)

	fmt.Println("before:")
	fmt.Println(f)
	fmt.Printf("static cost: %d\n\n", f.Cost())

	// Compile the verified corpus into executable matchers.
	var cts []*miniir.CompiledTransform
	for _, e := range suite.All() {
		if e.WantInvalid {
			continue
		}
		ct, err := miniir.Compile(e.Parse())
		if err != nil {
			continue // memory/undef patterns, and those reading a value the match does not bind
		}
		cts = append(cts, ct)
	}
	fmt.Printf("compiled %d verified transformations\n\n", len(cts))

	pass := miniir.NewPass(cts)
	fired := pass.RunFunction(f)
	f.DCE()

	fmt.Printf("after (%d rewrites):\n", fired)
	fmt.Println(f)
	fmt.Printf("static cost: %d\n\n", f.Cost())
	fmt.Println("firings:")
	names := make([]string, 0, len(pass.Fired))
	for name := range pass.Fired {
		names = append(names, name)
	}
	// Most firings first, then by name, as Figure 9 ranks them.
	sort.Slice(names, func(i, j int) bool {
		if ni, nj := pass.Fired[names[i]], pass.Fired[names[j]]; ni != nj {
			return ni > nj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Printf("  %-40s %d\n", name, pass.Fired[name])
	}

	// Check the optimized function still computes the same values.
	if err := f.Verify(); err != nil {
		log.Fatalf("optimized function is malformed: %v", err)
	}
	inputs := []bv.Vec{bv.New(32, 7), bv.New(32, 1000), bv.New(32, 0xF0F0)}
	got, err := miniir.Interpret(f, inputs)
	if err != nil {
		log.Fatalf("interpret: %v", err)
	}
	// Reference: ((^7)+51) + 1000 + 0xF0F0 computed directly.
	ref := bv.New(32, 7).Xor(bv.Ones(32)).Add(bv.New(32, 51)).
		Add(bv.New(32, 1000)).Add(bv.New(32, 0xF0F0))
	fmt.Printf("\nresult on (7, 1000, 0xF0F0): %s (expected %s)\n", got.V, ref)
	if got.Poison || !got.V.Eq(ref) {
		fmt.Fprintln(os.Stderr, "optimizer: the optimized function computes a wrong result")
		os.Exit(1)
	}
	_ = ir.NSW
}
