package smt

import (
	"fmt"
	"strings"
	"testing"

	"alive/internal/bv"
)

// fuzzWidths are the bit-vector widths FuzzIntern draws from: one word,
// part of one, exactly one, and more than one.
var fuzzWidths = [...]int{1, 3, 8, 64, 100}

// internProgram builds terms on b from the bytes of prog, one
// constructor per step, with operands drawn from the terms built so far
// and leaves (variables named by their width, constants, Bool literals)
// drawn from the bytes themselves. It returns every term a step built.
func internProgram(b *Builder, prog []byte) []*Term {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	var terms []*Term
	leafBV := func(w int) *Term {
		if next()%2 == 0 {
			return b.Var(fmt.Sprintf("v%d_w%d", next()%3, w), w)
		}
		v := bv.New(w, uint64(next())*0x9E3779B97F4A7C15)
		if w > 64 {
			v = v.Or(bv.New(w, uint64(next())).Shl(bv.New(w, 64)))
		}
		return b.Const(v)
	}
	leafBool := func() *Term {
		if next()%2 == 0 {
			return b.BoolVar(fmt.Sprintf("p%d", next()%3))
		}
		return b.Bool(next()%2 == 0)
	}
	// pick returns a built term of width w (0 for Bool), or a new leaf.
	pick := func(w int) *Term {
		if len(terms) > 0 {
			start := next() % len(terms)
			for i := range terms {
				if t := terms[(start+i)%len(terms)]; t.Width == w {
					return t
				}
			}
		}
		if w == 0 {
			return leafBool()
		}
		return leafBV(w)
	}
	width := func() int { return fuzzWidths[next()%len(fuzzWidths)] }
	bin := []func(x, y *Term) *Term{
		b.Add, b.Sub, b.Mul, b.BVAnd, b.BVOr, b.BVXor, b.Udiv, b.Urem,
		b.Sdiv, b.Srem, b.Shl, b.Lshr, b.Ashr,
	}
	rel := []func(x, y *Term) *Term{b.Ult, b.Ule, b.Slt, b.Sle, b.Eq}
	for steps := 0; pos < len(prog) && steps < 200; steps++ {
		var t *Term
		switch op := next() % 16; op {
		case 0:
			t = leafBV(width())
		case 1:
			t = leafBool()
		case 2:
			w := width()
			t = bin[next()%len(bin)](pick(w), pick(w))
		case 3:
			w := width()
			t = rel[next()%len(rel)](pick(w), pick(w))
		case 4:
			w := width()
			if next()%2 == 0 {
				t = b.Neg(pick(w))
			} else {
				t = b.BVNot(pick(w))
			}
		case 5, 6:
			args := make([]*Term, 1+next()%6)
			for i := range args {
				args[i] = pick(0)
			}
			if op == 5 {
				t = b.And(args...)
			} else {
				t = b.Or(args...)
			}
		case 7:
			t = b.Not(pick(0))
		case 8:
			t = b.Xor(pick(0), pick(0))
		case 9:
			t = b.Implies(pick(0), pick(0))
		case 10:
			t = b.Eq(pick(0), pick(0))
		case 11:
			w := width()
			if next()%2 == 0 {
				w = 0
			}
			t = b.Ite(pick(0), pick(w), pick(w))
		case 12:
			x := pick(width())
			to := x.Width + next()%40
			if next()%2 == 0 {
				t = b.ZExt(x, to)
			} else {
				t = b.SExt(x, to)
			}
		case 13:
			x := pick(width())
			lo := next() % x.Width
			hi := lo + next()%(x.Width-lo)
			t = b.Extract(x, hi, lo)
		case 14:
			t = b.Concat(pick(width()), pick(width()))
		default:
			t = pick(next() % 2 * width())
		}
		terms = append(terms, t)
	}
	return terms
}

// structure numbers terms by structure alone: a term's entry renders
// its kind, width, extract bounds, payload and the numbers of its
// arguments, so two terms get the same number exactly when they are
// built alike, whatever the builder did with them. seen memoizes by
// pointer, which is sound because a term never changes.
type structure struct {
	nums map[string]int
	seen map[*Term]int
}

func (s *structure) number(t *Term) int {
	if n, ok := s.seen[t]; ok {
		return n
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v w%d [%d:%d]", t.Kind, t.Width, t.Hi, t.Lo)
	switch t.Kind {
	case KBoolConst:
		fmt.Fprintf(&sb, " %v", t.BVal)
	case KBVConst:
		fmt.Fprintf(&sb, " %s", t.Val)
	case KVar:
		fmt.Fprintf(&sb, " %q", t.Name)
	}
	for _, a := range t.Args {
		fmt.Fprintf(&sb, " #%d", s.number(a))
	}
	key := sb.String()
	n, ok := s.nums[key]
	if !ok {
		n = len(s.nums)
		s.nums[key] = n
	}
	s.seen[t] = n
	return n
}

// FuzzIntern checks the builder's hash-consing against a structural
// rendering that includes every width: two terms the builder returns
// are one pointer, and have one ID, exactly when they render alike.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 0, 2, 2, 0, 0, 1, 1, 4, 0, 0})
	f.Add([]byte{5, 5, 0, 1, 0, 1, 0, 2, 1, 1, 1, 0, 1, 1, 0, 0, 5, 5, 0, 1, 0, 1, 0, 2, 1, 1, 1, 0, 1, 1})
	f.Add([]byte{0, 4, 1, 7, 9, 0, 4, 1, 7, 9, 14, 4, 4, 13, 4, 70, 3, 12, 4, 1})
	f.Add([]byte{1, 11, 1, 3, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, prog []byte) {
		b := NewBuilder()
		if len(prog) > 0 && prog[0]&0x80 != 0 {
			b.Simplify = false
		}
		terms := internProgram(b, prog)
		s := &structure{nums: map[string]int{}, seen: map[*Term]int{}}
		nums := make([]int, len(terms))
		for i, x := range terms {
			nums[i] = s.number(x)
		}
		for i, x := range terms {
			for j, y := range terms[:i] {
				same := nums[i] == nums[j]
				if (x == y) != same || (x.ID() == y.ID()) != same {
					t.Fatalf("terms %d and %d: same pointer %v, same ID %v, same structure %v\n%v\n%v",
						j, i, x == y, x.ID() == y.ID(), same, y, x)
				}
			}
		}
	})
}
