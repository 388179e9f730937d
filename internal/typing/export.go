package typing

import "alive/internal/ir"

// ConstraintSet is the generated Figure 3 constraint system of a
// transformation before enumeration: union-find equivalence classes over
// values, per-class shape and fixed-width facts, and the strict-order /
// equal-width side constraints contributed by conversions.
//
// It is exported for the static linter (internal/lint), which detects
// contradictions — a bitcast forcing equal widths that a trunc elsewhere
// forces unequal, fixed widths violating a zext ordering — with a single
// union-find pass and no enumeration or solver calls.
type ConstraintSet struct {
	sys *system
}

// Constraints generates the typing constraints of t without enumerating
// assignments. A non-nil error reports a contradiction detected during
// generation itself (shape conflicts, conflicting width annotations,
// conflicting pointee annotations).
func Constraints(t *ir.Transform) (*ConstraintSet, error) {
	s := newSystem()
	for _, in := range t.Source {
		s.instruction(in)
	}
	for _, in := range t.Target {
		s.instruction(in)
	}
	s.pred(t.Pre)
	for _, src := range t.Source {
		if n := src.Name(); n != "" {
			if tgt := t.TargetValue(n); tgt != nil {
				s.union(src, tgt)
			}
		}
	}
	return &ConstraintSet{sys: s}, s.err
}

// ClassOf returns the canonical representative of v's type class.
func (c *ConstraintSet) ClassOf(v ir.Value) ir.Value { return c.sys.find(v) }

// FixedWidth returns the concrete integer width pinned on v's class by
// annotations, and whether one exists.
func (c *ConstraintSet) FixedWidth(v ir.Value) (int, bool) {
	w, ok := c.sys.fixed[c.sys.find(v)]
	return w, ok
}

// IsInt reports whether v's class is (or defaults to) an integer sort.
// Unconstrained classes default to integer, mirroring enumeration.
func (c *ConstraintSet) IsInt(v ir.Value) bool {
	sh, ok := c.sys.shapes[c.sys.find(v)]
	return !ok || sh == shapeInt
}

// SmallerPairs returns the strict width orderings width(a) < width(b)
// contributed by zext/sext/trunc, projected onto class representatives.
func (c *ConstraintSet) SmallerPairs() [][2]ir.Value {
	out := make([][2]ir.Value, 0, len(c.sys.smaller))
	for _, p := range c.sys.smaller {
		out = append(out, [2]ir.Value{c.sys.find(p[0]), c.sys.find(p[1])})
	}
	return out
}

// SameBitsPairs returns the equal-bit-width constraints contributed by
// bitcast, projected onto class representatives.
func (c *ConstraintSet) SameBitsPairs() [][2]ir.Value {
	out := make([][2]ir.Value, 0, len(c.sys.sameBits))
	for _, p := range c.sys.sameBits {
		out = append(out, [2]ir.Value{c.sys.find(p[0]), c.sys.find(p[1])})
	}
	return out
}
