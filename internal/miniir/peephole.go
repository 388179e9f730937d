package miniir

import (
	"fmt"
	"slices"

	"alive/internal/bv"
	"alive/internal/ir"
)

// CompiledTransform is an Alive transformation compiled into a native
// matcher-and-rewriter over mini-IR — the executable counterpart of the
// C++ that Section 4's generator emits, used to measure firing counts
// (Figure 9) and pass cost (Section 6.4). It executes the plan codegen
// prints.
type CompiledTransform struct {
	Name string
	plan ir.Plan
	ops  []Op // the opcodes of plan.Match and then of plan.Build
}

// Compile prepares a transformation for application. Transformations
// whose plan has undef, memory operations or conversions other than
// zext, sext and trunc are not expressible in this IR and are rejected.
func Compile(t *ir.Transform) (*CompiledTransform, error) {
	plan, err := ir.CompilePlan(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	if plan.Root.Kind == ir.ArgUndef {
		return nil, fmt.Errorf("%s: undef is not expressible in mini-IR", t.Name)
	}
	ct := &CompiledTransform{Name: t.Name, plan: plan, ops: make([]Op, 0, len(plan.Match)+len(plan.Build))}
	for _, steps := range [2][]ir.Step{plan.Match, plan.Build} {
		for i := range steps {
			op, ok := opFor(steps[i].In)
			if !ok || slices.ContainsFunc(steps[i].Args, func(a ir.Arg) bool { return a.Kind == ir.ArgUndef }) {
				return nil, fmt.Errorf("%s: %s is not expressible in mini-IR", t.Name, steps[i].In)
			}
			ct.ops = append(ct.ops, op)
		}
	}
	return ct, nil
}

// opFor returns the opcode of a template instruction, if mini-IR has it.
func opFor(in ir.Instr) (Op, bool) {
	switch in := in.(type) {
	case *ir.BinOp:
		return OpAdd + Op(slices.Index(binOpKinds[OpAdd:], in.Op)), true
	case *ir.ICmp:
		return OpICmp, true
	case *ir.Select:
		return OpSelect, true
	case *ir.Conv:
		op, ok := convOps[in.Kind]
		return op, ok
	}
	return 0, false
}

// convOps maps the conversions mini-IR has to their opcodes.
var convOps = map[ir.ConvKind]Op{ir.ZExt: OpZExt, ir.SExt: OpSExt, ir.Trunc: OpTrunc}

// binding is a template value and the instruction bound to it. An
// abstract constant is bound to the constant instruction it matched,
// whose Const is its value.
type binding struct {
	tv ir.Value
	cv *Instr
}

// table holds the bindings of one match. A template binds only a few
// values, so a linear scan beats hashing, and truncating a table reuses
// its storage. The plan binds each value once, so binding appends.
type table []binding

func (t table) get(tv ir.Value) (*Instr, bool) {
	for _, e := range t {
		if e.tv == tv {
			return e.cv, true
		}
	}
	return nil, false
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
	s := &ct.plan.Match[i]
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
			b.vals = append(b.vals, binding{a.V, arg})
		case ir.ArgSame:
			// Distinct constant instructions may hold equal values.
			prev, _ := b.vals.get(a.V)
			if prev != arg && (!isConst || arg.Op != OpConst || prev.Width != arg.Width || !prev.Const.Eq(arg.Const)) {
				return false
			}
		case ir.ArgLiteral:
			if arg.Op != OpConst || a.Width != 0 && arg.Width != a.Width || !eqInt(arg.Const, a.V.(*ir.Literal).V) {
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
	b.vals = append(b.vals, binding{s.In, cv})
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

// apply executes ct's build steps before rootIn, reading and extending
// the bindings of the match, and replaces rootIn with the plan's root
// value. It returns false, leaving the function as it was, when a
// constant is undefined or a built instruction's operand widths differ.
func (ct *CompiledTransform) apply(b *bindings, rootIn *Instr) bool {
	b.created = b.created[:0]
	for i := range ct.plan.Build {
		s := &ct.plan.Build[i]
		args := make([]*Instr, len(s.Args))
		for j := range s.Args {
			if args[j] = b.value(&s.Args[j], s.Like); args[j] == nil {
				return false
			}
		}
		in := &Instr{Op: ct.ops[len(ct.plan.Match)+i], Width: args[0].Width, Flags: s.Flags, Cond: s.Cond, Args: args}
		switch in.Op {
		case OpICmp:
			in.Width = 1
		case OpSelect:
			in.Width = args[1].Width
		case OpZExt, OpSExt, OpTrunc:
			if in.Width = s.Width; in.Width == 0 {
				in.Width, _ = b.Width(s.Like)
			}
		}
		if !in.wellTyped() {
			return false
		}
		b.created = append(b.created, in)
		b.vals = append(b.vals, binding{s.In, in})
	}
	newRoot := b.value(&ct.plan.Root, ct.plan.Match[0].In)
	if newRoot == nil || newRoot == rootIn || newRoot.Width != rootIn.Width {
		return false
	}
	b.f.InsertBefore(rootIn, b.created)
	b.f.ReplaceAllUses(rootIn, newRoot)
	return true
}

// value returns the instruction for operand a of a build step: the one
// the match bound or a step built, or a new constant as wide as like
// unless a fixes its width, which it records in b.created. It returns
// nil for an undefined constant.
func (b *bindings) value(a *ir.Arg, like ir.Value) *Instr {
	if !a.Created() {
		cv, _ := b.vals.get(a.V)
		return cv
	}
	w := a.Width
	if w == 0 {
		w, _ = b.Width(like)
	}
	c, ok := ir.EvalConst(a.V, w, b)
	if !ok {
		return nil
	}
	in := &Instr{Op: OpConst, Width: w, Const: c}
	b.created = append(b.created, in)
	return in
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
