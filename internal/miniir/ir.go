// Package miniir is a miniature LLVM-like SSA intermediate representation
// used as the evaluation substrate: Figure 9's optimization-firing counts
// and the compile-time/run-time comparisons of Section 6.4 are measured
// by running Alive-compiled peephole passes over synthetic modules
// generated with a C-idiom instruction mix (see DESIGN.md for the
// substitution rationale).
//
// Functions are straight-line SSA (InstCombine does not modify control
// flow, so branch-free functions exercise exactly the relevant surface):
// a list of instructions where operands point at earlier instructions,
// ending in a single return value.
package miniir

import (
	"fmt"
	"slices"
	"strings"

	"alive/internal/bv"
	"alive/internal/ir"
)

// Op is a mini-IR opcode.
type Op int

// Opcodes. Param and Const are materialized as instructions so that every
// operand is an *Instr.
const (
	OpParam Op = iota
	OpConst
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor
	OpICmp
	OpSelect
	OpZExt
	OpSExt
	OpTrunc
)

var opNames = map[Op]string{
	OpParam: "param", OpConst: "const",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpICmp: "icmp", OpSelect: "select",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
}

func (o Op) String() string { return opNames[o] }

// binOpKinds maps each binary opcode to its Alive operator.
var binOpKinds = [...]ir.BinOpKind{
	OpAdd: ir.Add, OpSub: ir.Sub, OpMul: ir.Mul, OpUDiv: ir.UDiv, OpSDiv: ir.SDiv,
	OpURem: ir.URem, OpSRem: ir.SRem, OpShl: ir.Shl, OpLShr: ir.LShr, OpAShr: ir.AShr,
	OpAnd: ir.And, OpOr: ir.Or, OpXor: ir.Xor,
}

// IsBinOp reports whether o is a binary arithmetic/logical opcode.
func (o Op) IsBinOp() bool { return o >= OpAdd && o <= OpXor }

// Instr is one SSA instruction.
type Instr struct {
	Op    Op
	Width int // result width in bits
	Flags ir.Flags
	Cond  ir.CmpCond // OpICmp only
	Args  []*Instr
	Const bv.Vec // OpConst only
	Param int    // OpParam only

	id int // position for printing; maintained by Function.renumber, and DCE's mark while it runs
}

// Function is a straight-line SSA function returning one value.
type Function struct {
	Name   string
	Params []*Instr
	Body   []*Instr // excludes params; topologically ordered
	Ret    *Instr
}

// Module is a set of functions.
type Module struct {
	Funcs []*Function
}

// NumInstrs counts body instructions across the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Body)
	}
	return n
}

// Builder constructs a function incrementally.
type Builder struct {
	f *Function
}

// NewBuilder starts a function with parameters of the given widths.
func NewBuilder(name string, paramWidths ...int) *Builder {
	f := &Function{Name: name}
	for i, w := range paramWidths {
		f.Params = append(f.Params, &Instr{Op: OpParam, Width: w, Param: i})
	}
	return &Builder{f: f}
}

// Param returns the i-th parameter.
func (b *Builder) Param(i int) *Instr { return b.f.Params[i] }

// Const emits a constant.
func (b *Builder) Const(v bv.Vec) *Instr {
	in := &Instr{Op: OpConst, Width: v.Width(), Const: v}
	b.f.Body = append(b.f.Body, in)
	return in
}

// ConstInt emits an integer constant of the given width.
func (b *Builder) ConstInt(width int, v int64) *Instr {
	return b.Const(bv.NewInt(width, v))
}

// Bin emits a binary operation.
func (b *Builder) Bin(op Op, flags ir.Flags, x, y *Instr) *Instr {
	if !op.IsBinOp() {
		panic("miniir: Bin with non-binary opcode")
	}
	if x.Width != y.Width {
		panic(fmt.Sprintf("miniir: width mismatch %d vs %d", x.Width, y.Width))
	}
	in := &Instr{Op: op, Width: x.Width, Flags: flags, Args: []*Instr{x, y}}
	b.f.Body = append(b.f.Body, in)
	return in
}

// ICmp emits a comparison (result width 1).
func (b *Builder) ICmp(cond ir.CmpCond, x, y *Instr) *Instr {
	in := &Instr{Op: OpICmp, Width: 1, Cond: cond, Args: []*Instr{x, y}}
	b.f.Body = append(b.f.Body, in)
	return in
}

// Select emits cond ? x : y.
func (b *Builder) Select(cond, x, y *Instr) *Instr {
	in := &Instr{Op: OpSelect, Width: x.Width, Args: []*Instr{cond, x, y}}
	b.f.Body = append(b.f.Body, in)
	return in
}

// Conv emits a width conversion.
func (b *Builder) Conv(op Op, x *Instr, width int) *Instr {
	in := &Instr{Op: op, Width: width, Args: []*Instr{x}}
	b.f.Body = append(b.f.Body, in)
	return in
}

// Ret finishes the function.
func (b *Builder) Ret(v *Instr) *Function {
	b.f.Ret = v
	b.f.renumber()
	return b.f
}

func (f *Function) renumber() {
	id := 0
	for _, p := range f.Params {
		p.id = id
		id++
	}
	for _, in := range f.Body {
		in.id = id
		id++
	}
}

// Verify checks SSA well-formedness: operands precede their users, widths
// are consistent, and the return value belongs to the function.
func (f *Function) Verify() error {
	seen := map[*Instr]bool{}
	for _, p := range f.Params {
		if p.Op != OpParam {
			return fmt.Errorf("%s: non-param in params", f.Name)
		}
		seen[p] = true
	}
	for i, in := range f.Body {
		for _, a := range in.Args {
			if !seen[a] {
				return fmt.Errorf("%s: instruction %d uses a value that does not dominate it", f.Name, i)
			}
		}
		if in.Op == OpParam {
			return fmt.Errorf("%s: param in body at %d", f.Name, i)
		}
		if !in.wellTyped() {
			return fmt.Errorf("%s: malformed %s at %d", f.Name, in.Op, i)
		}
		seen[in] = true
	}
	if f.Ret == nil || !seen[f.Ret] {
		return fmt.Errorf("%s: missing or foreign return value", f.Name)
	}
	return nil
}

// wellTyped reports whether in has the number of operands and the widths
// its opcode requires.
func (in *Instr) wellTyped() bool {
	a := in.Args
	switch {
	case in.Op.IsBinOp():
		return len(a) == 2 && a[0].Width == in.Width && a[1].Width == in.Width
	case in.Op == OpICmp:
		return len(a) == 2 && in.Width == 1 && a[0].Width == a[1].Width
	case in.Op == OpSelect:
		return len(a) == 3 && a[0].Width == 1 && a[1].Width == in.Width && a[2].Width == in.Width
	case in.Op == OpZExt || in.Op == OpSExt:
		return len(a) == 1 && a[0].Width < in.Width
	case in.Op == OpTrunc:
		return len(a) == 1 && a[0].Width > in.Width
	case in.Op == OpConst:
		return in.Const.Width() == in.Width
	}
	return true
}

// String prints the function in an LLVM-like textual form.
func (f *Function) String() string {
	f.renumber()
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("i%d %%%d", p.Width, p.id)
	}
	fmt.Fprintf(&sb, "define i%d @%s(%s) {\n", f.Ret.Width, f.Name, strings.Join(params, ", "))
	ref := func(in *Instr) string {
		if in.Op == OpConst {
			return in.Const.String()
		}
		return fmt.Sprintf("%%%d", in.id)
	}
	for _, in := range f.Body {
		if in.Op == OpConst {
			continue
		}
		fmt.Fprintf(&sb, "  %%%d = %s", in.id, in.Op)
		if fl := in.Flags.String(); fl != "" {
			fmt.Fprintf(&sb, " %s", fl)
		}
		if in.Op == OpICmp {
			fmt.Fprintf(&sb, " %s", in.Cond)
		}
		fmt.Fprintf(&sb, " i%d", in.Width)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " %s", ref(a))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "  ret i%d %s\n}\n", f.Ret.Width, ref(f.Ret))
	return sb.String()
}

// ReplaceAllUses rewrites every use of old with new within f, including
// the return value.
func (f *Function) ReplaceAllUses(old, new *Instr) {
	for _, in := range f.Body {
		for i, a := range in.Args {
			if a == old {
				in.Args[i] = new
			}
		}
	}
	if f.Ret == old {
		f.Ret = new
	}
}

// InsertBefore splices newcomers into the body just before pos, in place
// when the body has room.
func (f *Function) InsertBefore(pos *Instr, newcomers []*Instr) {
	idx := slices.Index(f.Body, pos)
	if idx < 0 {
		f.Body = append(f.Body, newcomers...)
		return
	}
	f.Body = slices.Insert(f.Body, idx, newcomers...)
}

// countUses adds the number of uses of each instruction of f to uses
// (the return value counts as a use).
func (f *Function) countUses(uses map[*Instr]int) {
	for _, in := range f.Body {
		for _, a := range in.Args {
			uses[a]++
		}
	}
	uses[f.Ret]++
}

// DCE removes instructions with no uses, to a fixed point, and returns
// the number of removed instructions; the rest keep their order. Ret must
// be set and Body in dominance order, as Verify checks. Then every user
// of an instruction follows it, so one backward sweep from Ret marks
// exactly the instructions the fixed point keeps: those Ret depends on.
func (f *Function) DCE() int {
	const live = -1 // id doubles as the mark until renumber
	for _, in := range f.Body {
		in.id = 0
	}
	f.Ret.id = live
	for i := len(f.Body) - 1; i >= 0; i-- {
		if in := f.Body[i]; in.id == live {
			for _, a := range in.Args {
				a.id = live
			}
		}
	}
	kept := f.Body[:0]
	for _, in := range f.Body {
		if in.id == live {
			kept = append(kept, in)
		}
	}
	removed := len(f.Body) - len(kept)
	f.Body = kept
	f.renumber()
	return removed
}

// Cost is a static execution-cost proxy: the weighted sum of live
// instruction costs (division is expensive, moves are free), standing in
// for the run-time measurements of Section 6.4.
func (f *Function) Cost() int {
	total := 0
	for _, in := range f.Body {
		total += in.cost()
	}
	return total
}

func (in *Instr) cost() int {
	switch in.Op {
	case OpParam, OpConst:
		return 0
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return 20
	case OpMul:
		return 4
	default:
		return 1
	}
}

// Cost sums function costs across the module.
func (m *Module) Cost() int {
	total := 0
	for _, f := range m.Funcs {
		total += f.Cost()
	}
	return total
}

// ConstantFold replaces instructions whose operands are all constants
// with constant instructions, when the operation is defined and
// poison-free on those operands. Returns the number of folded
// instructions. Body must be in dominance order, which Verify checks, so
// an operand folded in this call is folded before its users are reached.
func (f *Function) ConstantFold() int {
	folded := 0
	var args [3]ExecValue
	for _, in := range f.Body {
		if in.Op == OpConst || len(in.Args) == 0 {
			continue
		}
		allConst := true
		for i, a := range in.Args {
			if a.Op != OpConst {
				allConst = false
				break
			}
			args[i] = ExecValue{V: a.Const}
		}
		if !allConst {
			continue
		}
		v, err := step(in, args[:len(in.Args)])
		if err != nil || v.Poison {
			continue // undefined or poisoned: leave it alone
		}
		in.Op = OpConst
		in.Const = v.V
		in.Args = nil
		in.Flags = 0
		folded++
	}
	return folded
}
