package miniir

import (
	"fmt"

	"alive/internal/bv"
	"alive/internal/ir"
)

// CompiledTransform is an Alive transformation compiled into a native
// matcher-and-rewriter over mini-IR — the executable counterpart of the
// C++ that Section 4's generator emits, used to measure firing counts
// (Figure 9) and pass cost (Section 6.4).
type CompiledTransform struct {
	Name   string
	t      *ir.Transform
	rootOp Op
	root   ir.Instr
}

// Compile prepares a transformation for application. Transformations
// whose source contains undef or memory operations are not matchable in
// this IR and are rejected.
func Compile(t *ir.Transform) (*CompiledTransform, error) {
	root := t.SourceValue(t.Root)
	if root == nil {
		return nil, fmt.Errorf("%s: no value root", t.Name)
	}
	for _, in := range t.Source {
		switch in.(type) {
		case *ir.Alloca, *ir.Load, *ir.Store, *ir.GEP, *ir.Unreachable:
			return nil, fmt.Errorf("%s: memory operations are not matchable in mini-IR", t.Name)
		}
		for _, op := range ir.Operands(in) {
			var bad error
			ir.WalkValues(op, func(v ir.Value) {
				if _, isU := v.(*ir.UndefValue); isU {
					bad = fmt.Errorf("%s: undef in source template is not matchable", t.Name)
				}
			})
			if bad != nil {
				return nil, bad
			}
		}
	}
	op, err := rootOpcode(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	return &CompiledTransform{Name: t.Name, t: t, rootOp: op, root: root}, nil
}

func rootOpcode(in ir.Instr) (Op, error) {
	switch in := in.(type) {
	case *ir.BinOp:
		return BinOpFor(in.Op), nil
	case *ir.ICmp:
		return OpICmp, nil
	case *ir.Select:
		return OpSelect, nil
	case *ir.Conv:
		switch in.Kind {
		case ir.ZExt:
			return OpZExt, nil
		case ir.SExt:
			return OpSExt, nil
		case ir.Trunc:
			return OpTrunc, nil
		}
		return 0, fmt.Errorf("conversion %s is not matchable", in.Kind)
	}
	return 0, fmt.Errorf("%T roots are not matchable", in)
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

// match attempts to match the source template rooted at in, binding
// into b.
func (ct *CompiledTransform) match(b *bindings, in *Instr) bool {
	b.vals = b.vals[:0]
	return b.matchValue(ct.root, in) && ir.EvalPred(ct.t.Pre, b) == ir.True
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

// typeFits reports whether a concrete value of the given width may
// stand where the template wrote type t: any width when no type was
// written, else exactly the written integer width. A transform written
// at i1 is only verified at i1.
func typeFits(t ir.Type, width int) bool {
	if t == nil {
		return true
	}
	it, ok := t.(ir.IntType)
	return ok && it.Bits == width
}

// matchValue matches a template value against a concrete instruction.
func (b *bindings) matchValue(tv ir.Value, cv *Instr) bool {
	if prev, ok := b.vals.get(tv); ok {
		// Repeated template value: must be the same concrete value.
		// Abstract constants compare by value (distinct constant
		// instructions may hold equal values); everything else by
		// identity.
		if _, isConst := tv.(*ir.AbstractConst); !isConst {
			return prev == cv
		}
	}
	switch tv := tv.(type) {
	case *ir.Input:
		if !typeFits(tv.DeclaredType, cv.Width) {
			return false
		}
		b.vals.set(tv, cv)
		return true
	case *ir.AbstractConst:
		c, ok := constOf(cv)
		if !ok || !typeFits(tv.DeclaredType, cv.Width) {
			return false
		}
		if prev, bound := b.vals.get(tv); bound {
			return prev.Width == cv.Width && prev.Const.Eq(c)
		}
		b.vals.set(tv, cv)
		return true
	case *ir.Literal:
		c, ok := constOf(cv)
		return ok && eqInt(c, tv.V)
	case *ir.BinOp:
		if cv.Op != BinOpFor(tv.Op) || cv.Flags&tv.Flags != tv.Flags || !typeFits(tv.DeclaredType, cv.Width) {
			return false
		}
		if !b.matchValue(tv.X, cv.Args[0]) || !b.matchValue(tv.Y, cv.Args[1]) {
			return false
		}
		b.vals.set(tv, cv)
		return true
	case *ir.ICmp:
		if cv.Op != OpICmp || cv.Cond != tv.Cond || !typeFits(tv.DeclaredType, cv.Args[0].Width) {
			return false
		}
		if !b.matchValue(tv.X, cv.Args[0]) || !b.matchValue(tv.Y, cv.Args[1]) {
			return false
		}
		b.vals.set(tv, cv)
		return true
	case *ir.Select:
		if cv.Op != OpSelect || !typeFits(tv.DeclaredType, cv.Width) {
			return false
		}
		if !b.matchValue(tv.Cond, cv.Args[0]) || !b.matchValue(tv.TrueV, cv.Args[1]) || !b.matchValue(tv.FalseV, cv.Args[2]) {
			return false
		}
		b.vals.set(tv, cv)
		return true
	case *ir.Conv:
		var want Op
		switch tv.Kind {
		case ir.ZExt:
			want = OpZExt
		case ir.SExt:
			want = OpSExt
		case ir.Trunc:
			want = OpTrunc
		default:
			return false
		}
		if cv.Op != want || !typeFits(tv.FromType, cv.Args[0].Width) || !typeFits(tv.ToType, cv.Width) ||
			!b.matchValue(tv.X, cv.Args[0]) {
			return false
		}
		b.vals.set(tv, cv)
		return true
	case *ir.Copy:
		return b.matchValue(tv.X, cv)
	case *ir.ConstUnExpr, *ir.ConstBinExpr, *ir.ConstFunc:
		// A constant expression in operand position matches a concrete
		// constant with the computed value.
		c, ok := constOf(cv)
		if !ok {
			return false
		}
		want, ok := ir.EvalConst(tv, c.Width(), b)
		return ok && want.Eq(c)
	}
	return false
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
		if prev, ok := b.vals.get(correspondingSource(ct.t, tin.Name())); ok && tin.Name() != "" {
			width = prev.Width
		}
		built, ok := b.build(tin, width)
		if !ok {
			return false
		}
		if tin.Name() != "" {
			// Later target instructions referring to this name must see
			// the new definition: rebind the *source* node of that name.
			if srcNode := ct.t.SourceValue(tin.Name()); srcNode != nil && srcNode != ct.root {
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
		var op Op
		switch v.Kind {
		case ir.ZExt:
			op = OpZExt
		case ir.SExt:
			op = OpSExt
		case ir.Trunc:
			op = OpTrunc
		default:
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

func correspondingSource(t *ir.Transform, name string) ir.Value {
	if name == "" {
		return nil
	}
	if in := t.SourceValue(name); in != nil {
		return in
	}
	return nil
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
		p.byOp[ct.rootOp] = append(p.byOp[ct.rootOp], ct)
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
