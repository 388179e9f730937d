// Attrinfer: demonstrate Section 3.4 attribute inference — finding the
// weakest nsw/nuw/exact precondition and the strongest postcondition for
// a transformation. It exits 1 unless each case's best assignment is the
// expected one.
package main

import (
	"fmt"
	"log"
	"os"
	"slices"

	"alive"
)

var cases = []struct {
	src string
	// want gives the best assignment's value of each named slot (as
	// Slot.String prints it); asWritten wants the original assignment.
	want      map[string]bool
	asWritten bool
}{
	// The commuted add: the target can keep both wrap flags.
	{src: `
Name: commute-add
%r = add nsw nuw %x, %y
=>
%r = add %y, %x
`, want: map[string]bool{"tgt %r nsw": true, "tgt %r nuw": true}},
	// The unnecessary source attribute can be dropped (weaker
	// precondition: the optimization fires on plain adds too).
	{src: `
Name: add-zero-with-flag
%r = add nuw %x, 0
=>
%r = %x
`, want: map[string]bool{"src %r nuw": false}},
	// The nsw is load-bearing: (x+1 > x) is only a tautology without
	// signed wrap.
	{src: `
Name: increment-compare
%1 = add nsw %x, 1
%2 = icmp sgt %1, %x
=>
%2 = true
`, asWritten: true},
}

func main() {
	opts := alive.Options{Widths: []int{4, 8}, MaxAssignments: 2}
	unexpected := 0
	for _, c := range cases {
		t, err := alive.ParseOne(c.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== %s ====\n", t.Name)
		fmt.Println(t)
		r, err := alive.InferAttributes(t, opts)
		if err != nil {
			fmt.Printf("UNEXPECTED: infer: %v\n\n", err)
			unexpected++
			continue
		}
		fmt.Print(r.Describe())
		fmt.Println("\noptimal form:")
		fmt.Println(r.Render(r.Best))
		if c.asWritten && !slices.Equal(r.Best, r.Original) {
			fmt.Printf("UNEXPECTED: the attributes should stay as written\n\n")
			unexpected++
		}
		found := 0
		for i, s := range r.Slots {
			want, ok := c.want[s.String()]
			if !ok {
				continue
			}
			found++
			if r.Best[i] != want {
				fmt.Printf("UNEXPECTED: best has %s = %v, want %v\n\n", s, r.Best[i], want)
				unexpected++
			}
		}
		if found != len(c.want) {
			fmt.Printf("UNEXPECTED: %d of the %d expected slots found\n\n", found, len(c.want))
			unexpected++
		}
	}
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "attrinfer: %d unexpected results\n", unexpected)
		os.Exit(1)
	}
}
