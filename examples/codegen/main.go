// Codegen: verify a transformation, then emit the InstCombine-style C++
// of the paper's Section 4 (compare with Figure 7), plus a complete pass
// file for a small set of optimizations. It exits 1 when Figure 7's body
// lacks its two match clauses or its isSignMask precondition, when the
// pass skips a transformation, or when a select's constant arm does not
// have the other arm's type.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"alive"
)

func main() {
	// The Figure 7 example.
	t, err := alive.ParseOne(`
Name: figure7
Pre: isSignBit(C1)
%b = xor %a, C1
%d = add %b, C2
=>
%d = add %a, C1 ^ C2
`)
	if err != nil {
		log.Fatal(err)
	}
	res := alive.Verify(t, alive.Options{Widths: []int{4, 8}})
	fmt.Printf("verdict: %v\n\n", res.Verdict)
	if res.Verdict != alive.Valid {
		log.Fatal("refusing to generate code for an unverified transformation")
	}
	cpp, err := alive.GenerateCpp(t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cpp)
	unexpected := 0
	for _, want := range []string{
		"match(I, m_Add(m_Value(b), m_ConstantInt(C2)))",
		"match(b, m_Xor(m_Value(a), m_ConstantInt(C1)))",
		"C1->getValue().isSignMask()",
	} {
		if !strings.Contains(cpp, want) {
			fmt.Fprintf(os.Stderr, "codegen: Figure 7's body lacks %s\n", want)
			unexpected++
		}
	}

	// A whole pass from several verified transformations.
	ts, err := alive.Parse(`
Name: add-zero
%r = add %x, 0
=>
%r = %x

Name: mul-pow2
Pre: isPowerOf2(C)
%r = mul %x, C
=>
%r = shl %x, log2(C)

Name: demorgan-and
%nx = xor %x, -1
%ny = xor %y, -1
%r = and %nx, %ny
=>
%o = or %x, %y
%r = xor %o, -1

Name: AndOrXor:and-sext-bool-to-select
%s = sext i1 %b to i8
%r = and %s, %x
=>
%r = select %b, i8 %x, 0
`)
	if err != nil {
		log.Fatal(err)
	}
	pass, skipped := alive.GenerateCppPass("AliveGenerated", ts)
	fmt.Println(pass)
	// The 0 arm takes the type of %x; the i1 condition's would make
	// SelectInst reject the two arms.
	if arm := `SelectInst::Create(b, x, ConstantInt::get(x->getType(), 0), "", I);`; !strings.Contains(pass, arm) {
		fmt.Fprintf(os.Stderr, "codegen: the select of and-sext-bool-to-select is not %s\n", arm)
		unexpected++
	}
	for _, s := range skipped {
		fmt.Fprintln(os.Stderr, "codegen: skipped", s)
		unexpected++
	}
	if unexpected > 0 {
		os.Exit(1)
	}
}
