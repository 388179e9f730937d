// Quickstart: parse an Alive transformation, verify it, and print the
// verdict. This is the paper's introductory example — the InstCombine
// pattern (x ^ -1) + C  ==>  (C - 1) - x — verified for every feasible
// type assignment. It exits 1 unless the example is valid and a broken
// variant of it invalid.
package main

import (
	"fmt"
	"log"
	"os"

	"alive"
)

const opt = `
Name: intro-example
%1 = xor %x, -1
%2 = add %1, C
=>
%2 = sub C-1, %x
`

func main() {
	t, err := alive.ParseOne(opt)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	fmt.Println("Verifying:")
	fmt.Println(t)

	res := alive.Verify(t, alive.Options{})
	fmt.Printf("Verdict: %v (%d type assignments, %d solver queries, %v)\n",
		res.Verdict, res.TypeAssignments, res.Queries, res.Duration)
	unexpected := 0
	if res.Verdict != alive.Valid {
		unexpected++
	}

	// Now break it: forget the -1 in the constant expression.
	broken, err := alive.ParseOne(`
Name: intro-example-broken
%1 = xor %x, -1
%2 = add %1, C
=>
%2 = sub C, %x
`)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	res = alive.Verify(broken, alive.Options{})
	fmt.Printf("\nBroken variant verdict: %v\n", res.Verdict)
	if res.Cex != nil {
		fmt.Println(res.Cex)
	}
	if res.Verdict != alive.Invalid {
		unexpected++
	}
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "quickstart: %d unexpected verdicts\n", unexpected)
		os.Exit(1)
	}
}
