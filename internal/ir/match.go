package ir

import (
	"fmt"
	"slices"
)

// A MatchPlan is a transformation's source template compiled for
// matching (§4): the mini-IR optimizer executes it and codegen prints it
// as InstCombine's match clauses, so the two cannot match differently.
type MatchPlan struct {
	// Steps match the source instructions in the order the matcher
	// reaches them: the root first, then operands left to right, depth
	// first. Steps[0] matches the root.
	Steps []MatchStep
	Pre   Pred
}

// A MatchStep matches one source instruction: a BinOp, ICmp, Select,
// Conv or Load.
type MatchStep struct {
	In    Instr
	Flags Flags   // the attributes the matched instruction must carry
	Cond  CmpCond // an icmp's predicate
	// Width is the written width of the result and ArgWidth that of the
	// first operand (an icmp's, or a conversion's source), 0 where no
	// integer type was written. The transform was only proved at them.
	Width, ArgWidth int
	Args            []MatchArg // one per operand, in order
}

// ArgKind says how a step matches one operand.
type ArgKind uint8

// Operand kinds.
const (
	ArgBind    ArgKind = iota // an input or abstract constant met first here: bind it
	ArgSame                   // a value bound earlier: the same value, or for an abstract constant an equal one
	ArgLiteral                // a literal
	ArgConst                  // a constant expression over earlier bindings
	ArgInstr                  // a source instruction met first here, matched by Steps[Step]
	ArgUndef                  // undef
)

// A MatchArg matches one operand of a step.
type MatchArg struct {
	Kind  ArgKind
	V     Value // the template value, copies followed
	Width int   // ArgBind: the written width, 0 if none
	Step  int   // ArgInstr: the index of the step that matches V
}

// CompileMatch compiles t's source template into a match plan. It fails
// when the source has no value root, a memory instruction other than
// load, or an instruction the root does not reach.
func CompileMatch(t *Transform) (*MatchPlan, error) {
	for _, in := range t.Source {
		switch in.(type) {
		case *Alloca, *Store, *GEP, *Unreachable:
			return nil, fmt.Errorf("%s: memory instructions other than load are not matchable", in)
		}
	}
	root := t.SourceValue(t.Root)
	if root == nil {
		return nil, fmt.Errorf("no value root")
	}
	c := planner{steps: make([]MatchStep, 0, len(t.Source)), bound: make([]Value, 0, 8)}
	if _, err := c.step(root); err != nil {
		return nil, err
	}
	for _, in := range t.Source {
		if !slices.Contains(c.bound, Value(in)) {
			return nil, fmt.Errorf("%s: the root does not reach it", in)
		}
	}
	return &MatchPlan{Steps: c.steps, Pre: t.Pre}, nil
}

// planner compiles steps in matching order; bound holds the values the
// steps so far bind, and the copies they followed. A template binds a
// handful of values, so a slice beats a map.
type planner struct {
	steps []MatchStep
	bound []Value
}

// step appends the step of in, and those of the instructions it reaches
// first, and returns its index.
func (c *planner) step(in Instr) (int, error) {
	s := MatchStep{In: in}
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
		return 0, fmt.Errorf("%s is not matchable", in)
	}
	i := len(c.steps)
	c.steps = append(c.steps, s)
	c.bound = append(c.bound, in)
	ops := Operands(in)
	args := make([]MatchArg, len(ops))
	for j, v := range ops {
		for {
			cp, ok := v.(*Copy)
			if !ok {
				break
			}
			c.bound = append(c.bound, cp)
			v = cp.X
		}
		a := MatchArg{Kind: ArgConst, V: v}
		switch v := v.(type) {
		case *Literal:
			a.Kind = ArgLiteral
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

// intWidth returns the width of a written integer type, 0 for any other.
func intWidth(t Type) int {
	if it, ok := t.(IntType); ok {
		return it.Bits
	}
	return 0
}
