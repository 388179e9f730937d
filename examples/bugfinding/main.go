// Bugfinding: run the verifier over the eight wrong InstCombine
// transformations of the paper's Figure 8 and print each counterexample —
// the exact bug reports (PR20186 ... PR21274) that Alive produced. It
// exits 1 when a bug is not reported invalid or a fixed variant is not
// reported valid.
package main

import (
	"fmt"
	"os"

	"alive"
	"alive/internal/suite"
)

func main() {
	unexpected := 0
	for _, e := range suite.Figure8() {
		t := e.Parse()
		fmt.Printf("==== %s ====\n", e.Name)
		fmt.Println(t)
		res := alive.Verify(t, alive.Options{Widths: []int{4, 8}})
		if res.Verdict != alive.Invalid {
			fmt.Printf("UNEXPECTED: verdict %v\n\n", res.Verdict)
			unexpected++
			continue
		}
		fmt.Println(res.Cex)
		fmt.Println()
	}

	fmt.Println("==== fixed variants ====")
	for _, e := range suite.Fixed() {
		res := alive.Verify(e.Parse(), alive.Options{Widths: []int{4, 8}})
		fmt.Printf("%-16s %v\n", e.Name, res.Verdict)
		if res.Verdict != alive.Valid {
			unexpected++
		}
	}
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "bugfinding: %d unexpected verdicts\n", unexpected)
		os.Exit(1)
	}
}
