package ir

import (
	"cmp"
	"fmt"
	"slices"
)

// A Plan is a transformation compiled for rewriting (§4): the match of
// its source template, the precondition, and the construction of its
// target. The mini-IR optimizer executes it and codegen prints it as
// InstCombine's C++, so the two cannot match or build differently.
type Plan struct {
	// Match matches the source instructions in the order the matcher
	// reaches them: the root first, then operands left to right, depth
	// first. Match[0] matches the root.
	Match []Step
	Pre   Pred
	// Build creates the new target instructions in target order, and
	// Root is the value that then replaces the root.
	Build []Step
	Root  Arg
}

// A Step matches one source instruction (a BinOp, ICmp, Select, Conv or
// Load) or creates one target instruction (a BinOp, ICmp, Select or
// Conv).
type Step struct {
	In    Instr
	Flags Flags   // the attributes the instruction carries
	Cond  CmpCond // an icmp's predicate
	// Width is the written width of the result and ArgWidth that of the
	// first operand (an icmp's, or a conversion's source), 0 where no
	// integer type was written. The transform was only proved at them.
	Width, ArgWidth int
	// Like is the value whose width a build step's created operands take
	// (a created select condition is i1): a non-created one of a binary
	// operator's or icmp's operands or of a select's arms, else the source
	// instruction the step redefines, else the root. An unwritten
	// conversion result takes its width too.
	Like Value
	Args []Arg // one per operand, in order
}

// ArgKind says how a step matches or builds one operand.
type ArgKind uint8

// Operand kinds. A build step's operand is ArgSame, ArgInstr, or a
// value the rewrite creates (see Created).
const (
	ArgBind    ArgKind = iota // an input or abstract constant met first here: bind it
	ArgSame                   // a value bound earlier: the same value, or for an abstract constant an equal one
	ArgLiteral                // a literal
	ArgConst                  // a constant expression over earlier bindings
	ArgInstr                  // a template instruction, matched or created by the step numbered Step
	ArgUndef                  // undef
)

// An Arg is one operand of a step, or the value that replaces the root.
type Arg struct {
	Kind ArgKind
	V    Value // the template value, copies followed
	// Width is the written width of a value the match binds, and 1 for a
	// Bool literal the match compares or a select condition the rewrite
	// creates; 0 otherwise.
	Width int
	Step  int // ArgInstr: the index of the step that matches or creates V
}

// CompilePlan compiles t into a rewrite plan. It fails when the source
// has no value root, a memory instruction other than load, or an
// instruction the root does not reach; when the target has an
// instruction other than a BinOp, ICmp, Select, Conv or copy; and when
// the precondition, the target, or a constant-expression operand of the
// source, where the match reads it, reads an abstract constant or input
// the match has not bound.
//
// A value the rewrite creates takes the width of a non-created operand
// of its instruction, if it has one: a select's other arm (never its
// condition), a binary operator's or icmp's other operand. Else it
// takes the width of the source value the instruction redefines, else
// the root's; so does a root replaced by a created value. A select
// condition is i1, and a conversion's result has its written type.
func CompilePlan(t *Transform) (Plan, error) {
	for _, in := range t.Source {
		switch in.(type) {
		case *Alloca, *Store, *GEP, *Unreachable:
			return Plan{}, fmt.Errorf("%s: memory instructions other than load are not matchable", in)
		}
	}
	root := t.SourceValue(t.Root)
	if root == nil {
		return Plan{}, fmt.Errorf("no value root")
	}
	c := planner{steps: make([]Step, 0, len(t.Source)+len(t.Target)), bound: make([]Value, 0, 8)}
	if _, err := c.step(root); err != nil {
		return Plan{}, err
	}
	for _, in := range t.Source {
		if !slices.Contains(c.bound, Value(in)) {
			return Plan{}, fmt.Errorf("%s: the root does not reach it", in)
		}
	}
	var err error
	WalkPred(t.Pre, func(v Value) { err = cmp.Or(err, c.read("the precondition", v)) })
	if err != nil {
		return Plan{}, err
	}
	m := len(c.steps)
	p := Plan{Match: c.steps[:m:m], Pre: t.Pre}
	for _, in := range t.Target {
		if _, ok := in.(*Copy); ok {
			continue // followed where it is read
		}
		s, ok := newStep(in)
		if _, load := in.(*Load); !ok || load {
			return Plan{}, fmt.Errorf("%s is not buildable", in)
		}
		s.Like = root
		switch src := t.SourceValue(in.Name()).(type) {
		case nil, *Copy: // no step of the match
		default:
			s.Like = src
		}
		var buf [3]Value
		ops := AppendOperands(buf[:0], in)
		s.Args = make([]Arg, len(ops))
		for j, v := range ops {
			if s.Args[j], err = c.buildArg(in, v, c.steps[m:]); err != nil {
				return Plan{}, err
			}
		}
		if n := len(s.Args); n > 1 {
			for _, a := range s.Args[n-2:] { // a binary operator's or icmp's operands, a select's arms
				if !a.Created() {
					s.Like = a.V
				}
			}
		}
		if _, sel := in.(*Select); sel && s.Args[0].Created() {
			s.Args[0].Width = 1
		}
		c.steps = append(c.steps, s)
	}
	rt := t.TargetValue(t.Root)
	if rt == nil {
		return Plan{}, fmt.Errorf("the target does not define the root %s", t.Root)
	}
	p.Build = c.steps[m:]
	if p.Root, err = c.buildArg(rt, rt, p.Build); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// planner compiles steps in matching order; bound holds the values the
// steps so far bind, and the copies they followed. A template binds a
// handful of values, so a slice beats a map.
type planner struct {
	steps []Step
	bound []Value
}

// newStep returns the step of in, without its operands, and whether in
// is one a step matches.
func newStep(in Instr) (Step, bool) {
	s := Step{In: in}
	switch in := in.(type) {
	case *BinOp:
		s.Flags, s.Width = in.Flags, intWidth(in.DeclaredType)
	case *ICmp:
		s.Cond, s.ArgWidth = in.Cond, intWidth(in.DeclaredType)
	case *Select:
		s.Width = intWidth(in.DeclaredType)
	case *Conv:
		s.Width, s.ArgWidth = intWidth(in.ToType), intWidth(in.FromType)
	case *Load:
		if pt, ok := in.DeclaredType.(PtrType); ok {
			s.Width = intWidth(pt.Elem)
		}
	default:
		return s, false
	}
	return s, true
}

// step appends the step of in, and those of the instructions it reaches
// first, and returns its index.
func (c *planner) step(in Instr) (int, error) {
	s, ok := newStep(in)
	if !ok {
		return 0, fmt.Errorf("%s is not matchable", in)
	}
	i := len(c.steps)
	c.steps = append(c.steps, s)
	c.bound = append(c.bound, in)
	var buf [3]Value // a step has at most three operands
	ops := AppendOperands(buf[:0], in)
	args := make([]Arg, len(ops))
	for j, v := range ops {
		for cp, ok := v.(*Copy); ok; cp, ok = v.(*Copy) {
			c.bound = append(c.bound, cp)
			v = cp.X
		}
		a := Arg{Kind: ArgConst, V: v}
		switch v := v.(type) {
		case *Literal:
			a.Kind = ArgLiteral
			if v.Bool {
				a.Width = 1
			}
		case *UndefValue:
			a.Kind = ArgUndef
		case *Input:
			a.Kind, a.Width = c.bind(v, v.DeclaredType)
		case *AbstractConst:
			a.Kind, a.Width = c.bind(v, v.DeclaredType)
		case Instr:
			a.Kind = ArgSame
			if !slices.Contains(c.bound, Value(v)) {
				a.Kind = ArgInstr
				var err error
				if a.Step, err = c.step(v); err != nil {
					return 0, err
				}
			}
		default:
			if err := c.read(in, v); err != nil {
				return 0, err
			}
		}
		args[j] = a
	}
	c.steps[i].Args = args
	return i, nil
}

// bind returns ArgSame for a value bound earlier, else binds it and
// returns ArgBind and the width of its written type.
func (c *planner) bind(v Value, t Type) (ArgKind, int) {
	if slices.Contains(c.bound, v) {
		return ArgSame, 0
	}
	c.bound = append(c.bound, v)
	return ArgBind, intWidth(t)
}

// read fails when v, read at where, reads an abstract constant or input
// the match has not bound so far.
func (c *planner) read(where any, v Value) error {
	switch v := v.(type) {
	case *Input, *AbstractConst:
		if !slices.Contains(c.bound, v) {
			return fmt.Errorf("%s reads %s, which the match has not bound", where, v)
		}
	case *ConstUnExpr:
		return c.read(where, v.X)
	case *ConstBinExpr:
		return cmp.Or(c.read(where, v.X), c.read(where, v.Y))
	case *ConstFunc:
		var err error
		for _, a := range v.Args {
			err = cmp.Or(err, c.read(where, a))
		}
		return err
	}
	return nil
}

// buildArg classifies the target value v, read at where, following
// copies, given the steps built before it.
func (c *planner) buildArg(where any, v Value, built []Step) (Arg, error) {
	for cp, ok := v.(*Copy); ok; cp, ok = v.(*Copy) {
		v = cp.X
	}
	a := Arg{Kind: ArgSame, V: v}
	switch v := v.(type) {
	case *Input, *AbstractConst:
	case Instr:
		for i := range built {
			if built[i].In == v {
				a.Kind, a.Step = ArgInstr, i
			}
		}
	case *Literal:
		a.Kind = ArgLiteral
	case *UndefValue:
		a.Kind = ArgUndef
	default:
		a.Kind = ArgConst
	}
	return a, c.read(where, v)
}

// Created reports whether the rewrite creates the value of a build
// step's operand: a literal, constant expression or undef.
func (a *Arg) Created() bool { return a.Kind != ArgSame && a.Kind != ArgInstr }

// intWidth returns the width of a written integer type, 0 for any other.
func intWidth(t Type) int {
	if it, ok := t.(IntType); ok {
		return it.Bits
	}
	return 0
}
