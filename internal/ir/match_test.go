package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"alive/internal/ir"
	"alive/internal/parser"
)

// planString renders a plan's steps one a line: the instruction, its
// checks, and each operand as kind:value, with the step an instruction
// operand leads to.
func planString(p *ir.MatchPlan) string {
	kinds := [...]string{"bind", "same", "lit", "expr", "instr", "undef"}
	var sb strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&sb, "%d %s flags=%d w=%d/%d:", i, s.In.Name(), s.Flags, s.Width, s.ArgWidth)
		for _, a := range s.Args {
			ref := a.V.Name()
			if ref == "" {
				ref = a.V.String()
			}
			fmt.Fprintf(&sb, " %s:%s", kinds[a.Kind], ref)
			if a.Kind == ir.ArgInstr {
				fmt.Fprintf(&sb, "@%d", a.Step)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCompileMatch pins the plan's order: the root first, then operands
// left to right, depth first, so a value is bound where the matcher
// first meets it and compared where it meets it again.
func TestCompileMatch(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`
%a = add nsw %x, C
%r = urem i8 %a, C
=>
%r = %x`, `0 %r flags=0 w=8/0: instr:%a@1 same:C
1 %a flags=1 w=0/0: bind:%x bind:C
`},
		{`
%1 = and %x, C
%2 = and %x, ~C
%r = add %1, %2
=>
%r = %x`, `0 %r flags=0 w=0/0: instr:%1@1 instr:%2@2
1 %1 flags=0 w=0/0: bind:%x bind:C
2 %2 flags=0 w=0/0: same:%x expr:~C
`},
		{`
%z = zext i1 %b to i8
%c = icmp eq i8 %z, 0
%r = select %c, %z, undef
=>
%r = %z`, `0 %r flags=0 w=0/0: instr:%c@1 same:%z undef:undef
1 %c flags=0 w=0/8: instr:%z@2 lit:0
2 %z flags=0 w=8/1: bind:%b
`},
	} {
		tr, err := parser.ParseOne(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.CompileMatch(tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := planString(p); got != tc.want {
			t.Errorf("%s\nplan:\n%s\nwant:\n%s", tc.src, got, tc.want)
		}
	}
}

// TestCompileMatchRejects: what no matcher can check is rejected.
func TestCompileMatchRejects(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"%p = alloca i8, 1\nstore %v, %p\n%r = add %v, 0\n=>\n%r = %v", "other than load"},
		{"%r = %x\n=>\n%r = %x", "not matchable"},
	} {
		tr, err := parser.ParseOne(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.CompileMatch(tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.src, err, tc.want)
		}
	}
}
