package ir

import (
	"fmt"
	"strings"
)

// Transform is one Alive transformation: a source template, a target
// template, and an optional precondition.
type Transform struct {
	Name string
	Pre  Pred

	// Source and Target hold the instructions in textual order. Store and
	// unreachable appear with empty names.
	Source []Instr
	Target []Instr

	// Root is the name of the common root register: the last instruction
	// of the source template, which the target must (re)define.
	Root string

	// DeclPos is the position of the transformation's first token and
	// PrePos the position of the precondition expression; both are zero
	// for programmatically built transforms.
	DeclPos Pos
	PrePos  Pos

	// instrPos records the source position of each parsed instruction.
	instrPos map[Instr]Pos
}

// PosOf returns the source position of an instruction (zero if unknown).
func (t *Transform) PosOf(in Instr) Pos { return t.instrPos[in] }

// SetPos records the source position of an instruction.
func (t *Transform) SetPos(in Instr, p Pos) {
	if t.instrPos == nil {
		t.instrPos = map[Instr]Pos{}
	}
	t.instrPos[in] = p
}

// SourceValue returns the source instruction defining name, or nil.
func (t *Transform) SourceValue(name string) Instr {
	for _, in := range t.Source {
		if in.Name() == name {
			return in
		}
	}
	return nil
}

// TargetValue returns the target instruction defining name, or nil.
func (t *Transform) TargetValue(name string) Instr {
	for _, in := range t.Target {
		if in.Name() == name {
			return in
		}
	}
	return nil
}

// Inputs returns every Input value referenced anywhere in the
// transformation, in first-use order.
func (t *Transform) Inputs() []*Input {
	var out []*Input
	seen := map[*Input]bool{}
	walk := func(v Value) {
		WalkValues(v, func(u Value) {
			if in, ok := u.(*Input); ok && !seen[in] {
				seen[in] = true
				out = append(out, in)
			}
		})
	}
	for _, in := range t.Source {
		for _, op := range Operands(in) {
			walk(op)
		}
	}
	for _, in := range t.Target {
		for _, op := range Operands(in) {
			walk(op)
		}
	}
	walkPred(t.Pre, walk)
	return out
}

// Constants returns every AbstractConst referenced anywhere, in first-use
// order.
func (t *Transform) Constants() []*AbstractConst {
	var out []*AbstractConst
	seen := map[*AbstractConst]bool{}
	walk := func(v Value) {
		WalkValues(v, func(u Value) {
			if c, ok := u.(*AbstractConst); ok && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		})
	}
	for _, in := range t.Source {
		for _, op := range Operands(in) {
			walk(op)
		}
	}
	for _, in := range t.Target {
		for _, op := range Operands(in) {
			walk(op)
		}
	}
	walkPred(t.Pre, walk)
	return out
}

// WalkValues visits v and every value reachable through operand edges
// (instructions included), pre-order, visiting shared nodes once.
func WalkValues(v Value, visit func(Value)) {
	seen := map[Value]bool{}
	var rec func(u Value)
	rec = func(u Value) {
		if u == nil || seen[u] {
			return
		}
		seen[u] = true
		visit(u)
		switch n := u.(type) {
		case *ConstUnExpr:
			rec(n.X)
		case *ConstBinExpr:
			rec(n.X)
			rec(n.Y)
		case *ConstFunc:
			for _, a := range n.Args {
				rec(a)
			}
		case Instr:
			var buf [3]Value
			for _, op := range AppendOperands(buf[:0], n) {
				rec(op)
			}
		}
	}
	rec(v)
}

// WalkPred visits the top-level value arguments of a predicate (the
// operands of comparisons and built-in predicate calls), without
// descending into the values themselves.
func WalkPred(p Pred, visit func(Value)) { walkPred(p, visit) }

func walkPred(p Pred, walk func(Value)) {
	switch q := p.(type) {
	case nil, TruePred:
	case *NotPred:
		walkPred(q.P, walk)
	case *AndPred:
		for _, r := range q.Ps {
			walkPred(r, walk)
		}
	case *OrPred:
		for _, r := range q.Ps {
			walkPred(r, walk)
		}
	case *CmpPred:
		walk(q.X)
		walk(q.Y)
	case *FuncPred:
		for _, a := range q.Args {
			walk(a)
		}
	}
}

// Validate enforces the structural and scoping rules of Section 2.1:
//
//   - the source ends in a named root instruction, which the target
//     redefines (the common root variable);
//   - every temporary defined in the source is used by a later source
//     instruction or overwritten in the target;
//   - every target instruction is used by a later target instruction or
//     overwrites a source temporary (the root trivially overwrites);
//   - names are defined before use and never redefined within a template.
func (t *Transform) Validate() error {
	if len(t.Source) == 0 {
		return fmt.Errorf("%s: empty source template", t.Name)
	}
	if len(t.Target) == 0 {
		return fmt.Errorf("%s: empty target template", t.Name)
	}
	if t.Root == "" {
		// A transformation may be rooted in a side effect (e.g. dead store
		// elimination): the last source instruction must then be void.
		last := t.Source[len(t.Source)-1]
		switch last.(type) {
		case *Store, *Unreachable:
		default:
			return fmt.Errorf("%s: no root variable (last source instruction must produce a value)", t.Name)
		}
	} else if t.TargetValue(t.Root) == nil {
		return fmt.Errorf("%s: target does not define the root %s", t.Name, t.Root)
	}

	srcDefs := map[string]bool{}
	for _, in := range t.Source {
		if n := in.Name(); n != "" {
			if srcDefs[n] {
				return fmt.Errorf("%s: %s redefined in source", t.Name, n)
			}
			srcDefs[n] = true
		}
	}
	tgtDefs := map[string]bool{}
	for _, in := range t.Target {
		if n := in.Name(); n != "" {
			if tgtDefs[n] {
				return fmt.Errorf("%s: %s redefined in target", t.Name, n)
			}
			tgtDefs[n] = true
		}
	}

	// Source temporaries must be used later in the source or overwritten
	// in the target.
	used := map[string]bool{}
	var buf [3]Value
	for _, in := range t.Source {
		for _, op := range AppendOperands(buf[:0], in) {
			WalkValues(op, func(u Value) {
				if n := u.Name(); n != "" {
					used[n] = true
				}
			})
		}
	}
	for _, in := range t.Source {
		n := in.Name()
		if n == "" || n == t.Root {
			continue
		}
		if !used[n] && !tgtDefs[n] {
			return fmt.Errorf("%s: source temporary %s is neither used later nor overwritten in the target", t.Name, n)
		}
	}

	// Target instructions must feed a later target instruction or
	// overwrite a source register.
	tgtUsed := map[string]bool{}
	for _, in := range t.Target {
		for _, op := range AppendOperands(buf[:0], in) {
			WalkValues(op, func(u Value) {
				if n := u.Name(); n != "" {
					tgtUsed[n] = true
				}
			})
		}
	}
	for _, in := range t.Target {
		n := in.Name()
		if n == "" {
			continue // store/unreachable are effects
		}
		if !tgtUsed[n] && !srcDefs[n] {
			return fmt.Errorf("%s: target instruction %s is neither used later nor overwrites a source instruction", t.Name, n)
		}
	}
	return nil
}

// String renders the transformation in Alive surface syntax.
func (t *Transform) String() string {
	var sb strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&sb, "Name: %s\n", t.Name)
	}
	if t.Pre != nil {
		if _, isTrue := t.Pre.(TruePred); !isTrue {
			fmt.Fprintf(&sb, "Pre: %s\n", t.Pre)
		}
	}
	for _, in := range t.Source {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("=>\n")
	for _, in := range t.Target {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
