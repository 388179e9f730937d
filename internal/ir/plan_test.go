package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"alive/internal/ir"
	"alive/internal/parser"
)

var kinds = [...]string{"bind", "same", "lit", "expr", "instr", "undef"}

// argString renders an operand as kind:value, with the step an
// instruction operand leads to and the fixed width of a created value.
func argString(a ir.Arg) string {
	s := kinds[a.Kind] + ":" + ref(a.V)
	switch {
	case a.Kind == ir.ArgInstr:
		s += fmt.Sprintf("@%d", a.Step)
	case a.Width != 0 && a.Created():
		s += fmt.Sprintf("/%d", a.Width)
	}
	return s
}

func ref(v ir.Value) string {
	if v.Name() == "" {
		return v.String()
	}
	return v.Name()
}

// planString renders a plan's match steps one a line: the instruction,
// its checks, and each operand.
func planString(p ir.Plan) string {
	var sb strings.Builder
	for i, s := range p.Match {
		fmt.Fprintf(&sb, "%d %s flags=%d w=%d/%d:", i, s.In.Name(), s.Flags, s.Width, s.ArgWidth)
		for _, a := range s.Args {
			sb.WriteString(" " + argString(a))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// buildString renders a plan's build steps one a line, and then the
// root's replacement.
func buildString(p ir.Plan) string {
	var sb strings.Builder
	for i, s := range p.Build {
		fmt.Fprintf(&sb, "%d %s flags=%d w=%d like=%s:", i, s.In.Name(), s.Flags, s.Width, ref(s.Like))
		for _, a := range s.Args {
			sb.WriteString(" " + argString(a))
		}
		sb.WriteByte('\n')
	}
	return sb.String() + "root " + argString(p.Root) + "\n"
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
		p, err := ir.CompilePlan(tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := planString(p); got != tc.want {
			t.Errorf("%s\nplan:\n%s\nwant:\n%s", tc.src, got, tc.want)
		}
	}
}

// TestCompileBuild pins the build half: one step per new target
// instruction in target order, operands that refer to match bindings or
// earlier steps, and the width of each created constant. A constant
// takes its sibling's width (5 that of %x, 0 that of the other arm,
// never of the i1 condition), and a step inherits the width of the
// source value it redefines (PR21274's %Y), else the root's.
func TestCompileBuild(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`
%r = icmp ult %x, 5
=>
%r = icmp ugt 5, %x`, `0 %r flags=0 w=0 like=%x: lit:5 same:%x
root instr:%r@0
`},
		{`
%1 = add %x, C
%r = select %c, %1, %x
=>
%s = select %c, C, 0
%r = add nsw %x, %s`, `0 %s flags=0 w=0 like=C: same:%c same:C lit:0
1 %r flags=1 w=0 like=%s: same:%x instr:%s@0
root instr:%r@1
`},
		{`
Pre: isPowerOf2(%Power) && hasOneUse(%Y)
%s = shl %Power, %A
%Y = lshr %s, %B
%r = udiv %X, %Y
=>
%sub = sub %A, %B
%Y = shl %Power, %sub
%r = udiv %X, %Y`, `0 %sub flags=0 w=0 like=%B: same:%A same:%B
1 %Y flags=0 w=0 like=%sub: same:%Power instr:%sub@0
2 %r flags=0 w=0 like=%Y: same:%X instr:%Y@1
root instr:%r@2
`},
		{`
%t = add %x, C1
%r = select %c, %t, %y
=>
%t = sub 0, 1
%r = select true, 7, %t`, `0 %t flags=0 w=0 like=%t: lit:0 lit:1
1 %r flags=0 w=0 like=%t: lit:true/1 lit:7 instr:%t@0
root instr:%r@1
`},
		{"%r = add %x, C1\n=>\n%r = C1 - 1", "root expr:C1 - 1\n"},
	} {
		tr, err := parser.ParseOne(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.CompilePlan(tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := buildString(p); got != tc.want {
			t.Errorf("%s\nbuild:\n%s\nwant:\n%s", tc.src, got, tc.want)
		}
	}
}

// TestCompileMatchRejects: what no matcher can check, and what reads a
// value the match does not bind, is rejected.
func TestCompileMatchRejects(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"%p = alloca i8, 1\nstore %v, %p\n%r = add %v, 0\n=>\n%r = %v", "other than load"},
		{"%r = %x\n=>\n%r = %x", "not matchable"},
		{"%p = load %q\n%r = add %p, 0\n=>\n%r = load %q", "not buildable"},
		{"Pre: C != 0\n%r = add %x, 0\n=>\n%r = %x", "the precondition reads C"},
		{"%r = add %x, %y\n=>\n%r = add %x, %z", "reads %z"},
		{"%r = add %x, 0\n=>\n%r = C + 1", "reads C"},
		// C is bound by the second operand, after the first reads it.
		{"%s = shl %x, C\n%r = add C + 1, %s\n=>\n%r = %s", "%r = add C + 1, %s reads C"},
	} {
		tr, err := parser.ParseOne(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.CompilePlan(tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.src, err, tc.want)
		}
	}
}
