package parser

import (
	"strings"
	"testing"
	"time"

	"alive/internal/ir"
)

// TestErrorColumns checks lexer and parser errors carry line:col
// positions pointing at the offending token, not just a line number.
func TestErrorColumns(t *testing.T) {
	cases := []struct {
		name, src, wantPos string
	}{
		{"lexer bad char", "%r = add %x, $y\n=>\n%r = %x\n", "line 1:14:"},
		{"parser bad operand", "%r = add %x, =\n=>\n%r = %x\n", "line 1:14:"},
		{"missing arrow", "%r = add %x, %y\n", "line 2:1:"},
		{"bad second line", "%r = add %x, %y\n=>\n%r = bogus %x\n", "line 3:12:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.wantPos) {
				t.Fatalf("error %q does not carry position %q", err, c.wantPos)
			}
		})
	}
}

// TestTransformPositions checks the parser threads source positions into
// the AST: the declaration, the precondition expression, and each
// instruction statement.
func TestTransformPositions(t *testing.T) {
	tr, err := ParseOne(`Name: positions
Pre: isPowerOf2(C)
%a = mul %x, C
%r = add %a, %y
=>
%r = add %y, %a
`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DeclPos != (ir.Pos{Line: 1, Col: 1}) {
		t.Errorf("DeclPos = %v, want 1:1", tr.DeclPos)
	}
	if tr.PrePos != (ir.Pos{Line: 2, Col: 6}) {
		t.Errorf("PrePos = %v, want 2:6", tr.PrePos)
	}
	wantLines := []int{3, 4}
	for i, in := range tr.Source {
		p := tr.PosOf(in)
		if p.Line != wantLines[i] || p.Col != 1 {
			t.Errorf("source[%d] pos = %v, want %d:1", i, p, wantLines[i])
		}
	}
	if p := tr.PosOf(tr.Target[0]); p.Line != 6 || p.Col != 1 {
		t.Errorf("target[0] pos = %v, want 6:1", p)
	}
}

// TestProgrammaticZeroPos checks transforms built in Go report the zero
// position (rendered "?") rather than a misleading 0:0.
func TestProgrammaticZeroPos(t *testing.T) {
	var tr ir.Transform
	if !tr.DeclPos.IsZero() {
		t.Fatal("zero value must be IsZero")
	}
	if got := tr.DeclPos.String(); got != "?" {
		t.Fatalf("zero pos renders %q, want ?", got)
	}
}

// TestIntegerTypeWidthLimit checks that an integer type wider than
// LLVM's IntegerType::MAX_INT_BITS (2^23) is a positioned parse error,
// found at once, while the widest legal type still parses. Such a width
// used to reach the solver and build a constant no deadline could wait
// for.
func TestIntegerTypeWidthLimit(t *testing.T) {
	for _, c := range []struct {
		name, src, wantPos string
	}{
		{"fuzzer input", "%r = shl i999999998 %x, 4\n=>\n%r = %x\n", "line 1:10:"},
		{"one past the limit", "Name: w\n%r = add i8388609 %x, 0\n=>\n%r = %x\n", "line 2:10:"},
		{"beyond int", "%r = add %x, 0\n=>\n%r = add i99999999999999999999 %x, 0\n", "line 3:10:"},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), c.wantPos) || !strings.Contains(err.Error(), "wider than 8388608 bits") {
				t.Fatalf("error %q, want position %q and the limit", err, c.wantPos)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("took %v", d)
			}
		})
	}
	tr, err := ParseOne("%r = add i8388608 %x, 0\n=>\n%r = %x\n")
	if err != nil {
		t.Fatalf("widest legal type: %v", err)
	}
	if typ := tr.Source[0].(*ir.BinOp).DeclaredType; typ != (ir.IntType{Bits: 1 << 23}) {
		t.Fatalf("widest legal type parsed as %v", typ)
	}
}
