package miniir

import (
	"fmt"

	"alive/internal/bv"
	"alive/internal/ir"
)

// CompiledTransform is an Alive transformation compiled into a native
// matcher-and-rewriter over mini-IR — the executable counterpart of the
// C++ that Section 4's generator emits, used to measure firing counts
// (Figure 9) and pass cost (Section 6.4). It executes the match plan
// codegen prints.
type CompiledTransform struct {
	Name string
	t    *ir.Transform
	plan *ir.MatchPlan
	ops  []Op // ops[i] is the opcode plan.Steps[i] matches
}

// Compile prepares a transformation for application. Transformations
// whose source contains undef or memory operations are not matchable in
// this IR and are rejected.
func Compile(t *ir.Transform) (*CompiledTransform, error) {
	plan, err := ir.CompileMatch(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	ct := &CompiledTransform{Name: t.Name, t: t, plan: plan, ops: make([]Op, len(plan.Steps))}
	for i, s := range plan.Steps {
		var ok bool
		if ct.ops[i], ok = opFor(s.In); !ok {
			return nil, fmt.Errorf("%s: %s is not matchable in mini-IR", t.Name, s.In)
		}
		for _, a := range s.Args {
			if a.Kind == ir.ArgUndef {
				return nil, fmt.Errorf("%s: undef in source template is not matchable", t.Name)
			}
		}
	}
	return ct, nil
}

// opFor returns the opcode of a template instruction, if mini-IR has it.
func opFor(in ir.Instr) (Op, bool) {
	switch in := in.(type) {
	case *ir.BinOp:
		return BinOpFor(in.Op), true
	case *ir.ICmp:
		return OpICmp, true
	case *ir.Select:
		return OpSelect, true
	case *ir.Conv:
		switch in.Kind {
		case ir.ZExt:
			return OpZExt, true
		case ir.SExt:
			return OpSExt, true
		case ir.Trunc:
			return OpTrunc, true
		}
	}
	return 0, false
}

// binding is a template value and the instruction bound to it. An
// abstract constant is bound to the constant instruction it matched,
// whose Const is its value.
type binding struct {
	tv ir.Value
	cv *Instr
}

// table holds the bindings of one match. A template binds only a few
// values, so a linear scan beats hashing, and truncating a table reuses
// its storage.
type table []binding

func (t table) get(tv ir.Value) (*Instr, bool) {
	for _, e := range t {
		if e.tv == tv {
			return e.cv, true
		}
	}
	return nil, false
}

// set binds tv to cv, replacing an earlier binding of tv.
func (t *table) set(tv ir.Value, cv *Instr) {
	for i := range *t {
		if (*t)[i].tv == tv {
			(*t)[i].cv = cv
			return
		}
	}
	*t = append(*t, binding{tv, cv})
}

// bindings is the state of one match attempt and, when it succeeds, of
// its rewrite. A Pass owns one and resets it for every attempt, as the
// generated C++ binds m_Value(X) into locals. It is the ir.Env that
// preconditions and constant expressions are evaluated in.
type bindings struct {
	vals    table
	created []*Instr // the instructions apply builds
	f       *Function
	// Analyses of f, computed the first time a precondition reads them in
	// a scan and kept until the scan ends: known bits value by value, use
	// counts for the whole function at once. That gives what computing
	// them before the scan gives, since a scan ends at its first rewrite
	// and a failed match or apply leaves f as it was.
	known map[*Instr]KnownBits
	uses  map[*Instr]int
}

// match attempts to match ct's plan at in, binding into b.
func (ct *CompiledTransform) match(b *bindings, in *Instr) bool {
	b.vals = b.vals[:0]
	return b.matchStep(ct, 0, in) && ir.EvalPred(ct.plan.Pre, b) == ir.True
}

// startScan binds f and forgets the analyses of the previous scan.
func (b *bindings) startScan(f *Function) {
	b.f = f
	clear(b.known)
	clear(b.uses)
}

// useCount returns the number of uses of in, counting the uses of every
// instruction on the first call in a scan. Ret counts as a use, so the
// counts are never empty once made.
func (b *bindings) useCount(in *Instr) int {
	if len(b.uses) == 0 {
		b.f.countUses(b.uses)
	}
	return b.uses[in]
}

// matchStep matches step i of ct's plan against cv, matching the step of
// an instruction operand where the plan first meets it, and then binds
// the step's instruction to cv.
func (b *bindings) matchStep(ct *CompiledTransform, i int, cv *Instr) bool {
	s := &ct.plan.Steps[i]
	if cv.Op != ct.ops[i] || cv.Flags&s.Flags != s.Flags || cv.Op == OpICmp && cv.Cond != s.Cond ||
		s.Width != 0 && cv.Width != s.Width || s.ArgWidth != 0 && cv.Args[0].Width != s.ArgWidth {
		return false
	}
	for j := range s.Args {
		a, arg := &s.Args[j], cv.Args[j]
		_, isConst := a.V.(*ir.AbstractConst)
		switch a.Kind {
		case ir.ArgBind:
			if isConst && arg.Op != OpConst || a.Width != 0 && arg.Width != a.Width {
				return false
			}
			b.vals.set(a.V, arg)
		case ir.ArgSame:
			// Distinct constant instructions may hold equal values.
			prev, _ := b.vals.get(a.V)
			if prev != arg && (!isConst || arg.Op != OpConst || prev.Width != arg.Width || !prev.Const.Eq(arg.Const)) {
				return false
			}
		case ir.ArgLiteral:
			if arg.Op != OpConst || !eqInt(arg.Const, a.V.(*ir.Literal).V) {
				return false
			}
		case ir.ArgConst:
			if arg.Op != OpConst {
				return false
			}
			if want, ok := ir.EvalConst(a.V, arg.Width, b); !ok || !want.Eq(arg.Const) {
				return false
			}
		case ir.ArgInstr:
			if !b.matchStep(ct, a.Step, arg) {
				return false
			}
		}
	}
	b.vals.set(s.In, cv)
	return true
}

// eqInt reports whether c holds the two's-complement encoding of v, as
// c.Eq(bv.NewInt(c.Width(), v)) does, without building a vector when c
// fits in a word.
func eqInt(c bv.Vec, v int64) bool {
	if w := c.Width(); w <= 64 {
		return c.Uint64() == uint64(v)&(^uint64(0)>>(64-w))
	}
	return c.Eq(bv.NewInt(c.Width(), v))
}

// Const reads the value of the constant an abstract constant matched.
func (b *bindings) Const(c *ir.AbstractConst) (bv.Vec, bool) {
	cv, ok := b.vals.get(c)
	if !ok {
		return bv.Vec{}, false
	}
	return cv.Const, true
}

// Width reads the width of the instruction bound to v.
func (b *bindings) Width(v ir.Value) (int, bool) {
	cv, ok := b.vals.get(v)
	if !ok {
		return 0, false
	}
	return cv.Width, true
}

// Analysis answers a built-in predicate on a value that is not a
// constant, as LLVM's analyses would: isPowerOf2 by KnownPowerOfTwo,
// MaskedValueIsZero by known bits, hasOneUse by use counts. A
// must-analysis that proves nothing answers False, never Undecided:
// vcgen encodes it as a fresh p with p ⇒ s, so the proof covers p =
// false.
func (b *bindings) Analysis(p *ir.FuncPred) ir.Truth {
	var cv *Instr
	if len(p.Args) > 0 {
		cv, _ = b.vals.get(p.Args[0])
	}
	switch p.FName {
	case "isPowerOf2":
		return ir.TruthOf(cv != nil && KnownPowerOfTwo(cv))
	case "MaskedValueIsZero":
		if cv == nil {
			return ir.False
		}
		mask, ok := ir.EvalConst(p.Args[1], cv.Width, b)
		// Every masked bit must be known zero.
		return ir.TruthOf(ok && mask.And(knownBitsOf(cv, b.known).Zero.Not()).IsZero())
	case "hasOneUse", "OneUse":
		return ir.TruthOf(cv != nil && b.useCount(cv) == 1)
	case "isPowerOf2OrZero", "isSignBit", "isShiftedMask",
		"WillNotOverflowSignedAdd", "WillNotOverflowUnsignedAdd",
		"WillNotOverflowSignedSub", "WillNotOverflowUnsignedSub",
		"WillNotOverflowSignedMul", "WillNotOverflowUnsignedMul",
		"WillNotOverflowSignedShl", "WillNotOverflowUnsignedShl":
		return ir.False
	}
	return ir.Undecided
}

// apply rewrites the DAG rooted at rootIn according to the target
// template, reading and extending the bindings of the match. It returns
// false, leaving the function as it was, when the target needs a
// construct the IR cannot express (e.g. undef).
func (ct *CompiledTransform) apply(b *bindings, rootIn *Instr) bool {
	b.created = b.created[:0]
	// Build the target in order so redefinitions shadow source bindings.
	var newRoot *Instr
	for _, tin := range ct.t.Target {
		width := rootIn.Width
		if prev, ok := b.vals.get(ct.t.SourceValue(tin.Name())); ok && tin.Name() != "" {
			width = prev.Width
		}
		built, ok := b.build(tin, width)
		if !ok {
			return false
		}
		if tin.Name() != "" {
			// Later target instructions referring to this name must see
			// the new definition: rebind the *source* node of that name.
			if srcNode := ct.t.SourceValue(tin.Name()); srcNode != nil && srcNode != ct.plan.Steps[0].In {
				b.vals.set(srcNode, built)
			}
			if tin.Name() == ct.t.Root {
				newRoot = built
			}
		}
	}
	if newRoot == nil || newRoot == rootIn {
		return false
	}
	if newRoot.Width != rootIn.Width {
		return false
	}
	b.f.InsertBefore(rootIn, b.created)
	b.f.ReplaceAllUses(rootIn, newRoot)
	return true
}

// build returns the instruction for target value v, creating it (and
// recording it in b.created) unless v is bound.
func (b *bindings) build(v ir.Value, width int) (*Instr, bool) {
	// Source-bound and previously built values are reused directly.
	if cv, ok := b.vals.get(v); ok {
		return cv, true
	}
	var in *Instr
	switch v := v.(type) {
	case *ir.Literal:
		in = &Instr{Op: OpConst, Width: width, Const: bv.NewInt(width, v.V)}
	case *ir.AbstractConst, *ir.ConstUnExpr, *ir.ConstBinExpr, *ir.ConstFunc:
		c, ok := ir.EvalConst(v, width, b)
		if !ok {
			return nil, false
		}
		in = &Instr{Op: OpConst, Width: width, Const: c}
	case *ir.BinOp:
		x, okx := b.build(v.X, width)
		if !okx {
			return nil, false
		}
		y, oky := b.build(v.Y, x.Width)
		if !oky || x.Width != y.Width {
			return nil, false
		}
		in = &Instr{Op: BinOpFor(v.Op), Width: x.Width, Flags: v.Flags, Args: []*Instr{x, y}}
		b.vals.set(v, in)
	case *ir.ICmp:
		x, okx := b.build(v.X, width)
		if !okx {
			return nil, false
		}
		y, oky := b.build(v.Y, x.Width)
		if !oky {
			return nil, false
		}
		in = &Instr{Op: OpICmp, Width: 1, Cond: v.Cond, Args: []*Instr{x, y}}
		b.vals.set(v, in)
	case *ir.Select:
		c, okc := b.build(v.Cond, 1)
		tv, okt := b.build(v.TrueV, width)
		if !okc || !okt {
			return nil, false
		}
		fv, okf := b.build(v.FalseV, tv.Width)
		if !okf {
			return nil, false
		}
		in = &Instr{Op: OpSelect, Width: tv.Width, Args: []*Instr{c, tv, fv}}
		b.vals.set(v, in)
	case *ir.Conv:
		x, ok := b.build(v.X, width)
		if !ok {
			return nil, false
		}
		op, ok := opFor(v)
		if !ok {
			return nil, false
		}
		if to, ok := v.ToType.(ir.IntType); ok {
			width = to.Bits // a written result type, as in `trunc i8 %x to i4`
		}
		in = &Instr{Op: op, Width: width, Args: []*Instr{x}}
		b.vals.set(v, in)
	case *ir.Copy:
		return b.build(v.X, width)
	default:
		return nil, false
	}
	b.created = append(b.created, in)
	return in, true
}

// Pass applies a set of compiled transformations to modules, counting
// firings per transformation — the instrumentation behind Figure 9. A
// Pass is not safe for concurrent use.
type Pass struct {
	Transforms []*CompiledTransform
	Fired      map[string]int
	byOp       map[Op][]*CompiledTransform
	b          bindings // reset for every match attempt
}

// NewPass builds a pass over the given transformations.
func NewPass(ts []*CompiledTransform) *Pass {
	p := &Pass{
		Transforms: ts, Fired: map[string]int{}, byOp: map[Op][]*CompiledTransform{},
		b: bindings{known: map[*Instr]KnownBits{}, uses: map[*Instr]int{}},
	}
	for _, ct := range ts {
		p.byOp[ct.ops[0]] = append(p.byOp[ct.ops[0]], ct)
	}
	return p
}

// RunFunction applies transformations to a fixed point (bounded by a
// rewrite budget proportional to the function size) and returns the
// number of rewrites. Each scan tries the candidates for every
// instruction from the top and ends at its first rewrite, after which
// constants are folded and dead code removed. As InstCombine calls
// computeKnownBits only when a pattern asks, known bits and use counts
// are computed the first time a precondition reads them in a scan.
func (p *Pass) RunFunction(f *Function) int {
	b := &p.b
	fired := 0
	budget := 4*len(f.Body) + 16
	for fired < budget {
		b.startScan(f)
		changed := false
	scan:
		for _, in := range f.Body {
			for _, ct := range p.byOp[in.Op] {
				if ct.match(b, in) && ct.apply(b, in) {
					p.Fired[ct.Name]++
					fired++
					changed = true
					break scan
				}
			}
		}
		if !changed {
			break
		}
		f.ConstantFold()
		f.DCE()
	}
	b.startScan(nil) // retain nothing of f
	return fired
}

// RunModule applies the pass to every function.
func (p *Pass) RunModule(m *Module) int {
	total := 0
	for _, f := range m.Funcs {
		total += p.RunFunction(f)
	}
	return total
}
