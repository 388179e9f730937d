package ir

import (
	"fmt"
	"strings"
)

// Instr is an instruction; instructions that produce a first-class value
// are also Values.
type Instr interface {
	Value
	instrNode()
}

// BinOpKind enumerates the binary operators of Figure 1.
type BinOpKind int

// Binary operators.
const (
	Add BinOpKind = iota
	Sub
	Mul
	UDiv
	SDiv
	URem
	SRem
	Shl
	LShr
	AShr
	And
	Or
	Xor
)

var binOpNames = map[BinOpKind]string{
	Add: "add", Sub: "sub", Mul: "mul", UDiv: "udiv", SDiv: "sdiv",
	URem: "urem", SRem: "srem", Shl: "shl", LShr: "lshr", AShr: "ashr",
	And: "and", Or: "or", Xor: "xor",
}

// BinOpByName maps mnemonics to kinds.
var BinOpByName = func() map[string]BinOpKind {
	m := map[string]BinOpKind{}
	for k, n := range binOpNames {
		m[n] = k
	}
	return m
}()

func (op BinOpKind) String() string { return binOpNames[op] }

// Flags are the undefined-behavior attributes of Section 2.4.
type Flags uint8

// Attribute flags.
const (
	NSW Flags = 1 << iota // no signed wrap
	NUW                   // no unsigned wrap
	Exact
)

func (f Flags) String() string {
	var parts []string
	if f&NSW != 0 {
		parts = append(parts, "nsw")
	}
	if f&NUW != 0 {
		parts = append(parts, "nuw")
	}
	if f&Exact != 0 {
		parts = append(parts, "exact")
	}
	return strings.Join(parts, " ")
}

// ValidFlags returns the attribute flags an operator may carry: nsw/nuw on
// add, sub, mul, shl; exact on sdiv, udiv, ashr, lshr.
func ValidFlags(op BinOpKind) Flags {
	switch op {
	case Add, Sub, Mul, Shl:
		return NSW | NUW
	case SDiv, UDiv, AShr, LShr:
		return Exact
	}
	return 0
}

// BinOp is `reg = op [flags] a, b`.
type BinOp struct {
	VName        string
	Op           BinOpKind
	Flags        Flags
	X, Y         Value
	DeclaredType Type
}

func (*BinOp) valueNode()     {}
func (*BinOp) instrNode()     {}
func (v *BinOp) Name() string { return v.VName }
func (v *BinOp) String() string {
	s := v.VName + " = " + v.Op.String()
	if fl := v.Flags.String(); fl != "" {
		s += " " + fl
	}
	if v.DeclaredType != nil {
		s += " " + v.DeclaredType.String()
	}
	return s + " " + refName(v.X) + ", " + refName(v.Y)
}

// CmpCond enumerates icmp condition codes.
type CmpCond int

// Comparison conditions.
const (
	CondEq CmpCond = iota
	CondNe
	CondUgt
	CondUge
	CondUlt
	CondUle
	CondSgt
	CondSge
	CondSlt
	CondSle
)

var condNames = map[CmpCond]string{
	CondEq: "eq", CondNe: "ne", CondUgt: "ugt", CondUge: "uge",
	CondUlt: "ult", CondUle: "ule", CondSgt: "sgt", CondSge: "sge",
	CondSlt: "slt", CondSle: "sle",
}

// CondByName maps condition mnemonics to codes.
var CondByName = func() map[string]CmpCond {
	m := map[string]CmpCond{}
	for k, n := range condNames {
		m[n] = k
	}
	return m
}()

func (c CmpCond) String() string { return condNames[c] }

// ICmp is `reg = icmp cond a, b`; the result has type i1.
type ICmp struct {
	VName        string
	Cond         CmpCond
	X, Y         Value
	DeclaredType Type // type of the operands, when written
}

func (*ICmp) valueNode()     {}
func (*ICmp) instrNode()     {}
func (v *ICmp) Name() string { return v.VName }
func (v *ICmp) String() string {
	s := v.VName + " = icmp " + v.Cond.String()
	if v.DeclaredType != nil {
		s += " " + v.DeclaredType.String()
	}
	return s + " " + refName(v.X) + ", " + refName(v.Y)
}

// Select is `reg = select cond, a, b`.
type Select struct {
	VName        string
	Cond         Value
	TrueV        Value
	FalseV       Value
	DeclaredType Type
}

func (*Select) valueNode()     {}
func (*Select) instrNode()     {}
func (v *Select) Name() string { return v.VName }
func (v *Select) String() string {
	s := v.VName + " = select " + refName(v.Cond) + ", "
	if v.DeclaredType != nil {
		s += v.DeclaredType.String() + " "
	}
	return s + refName(v.TrueV) + ", " + refName(v.FalseV)
}

// ConvKind enumerates conversion instructions.
type ConvKind int

// Conversion kinds.
const (
	ZExt ConvKind = iota
	SExt
	Trunc
	BitCast
	PtrToInt
	IntToPtr
)

var convNames = map[ConvKind]string{
	ZExt: "zext", SExt: "sext", Trunc: "trunc", BitCast: "bitcast",
	PtrToInt: "ptrtoint", IntToPtr: "inttoptr",
}

// ConvByName maps conversion mnemonics to kinds.
var ConvByName = func() map[string]ConvKind {
	m := map[string]ConvKind{}
	for k, n := range convNames {
		m[n] = k
	}
	return m
}()

func (c ConvKind) String() string { return convNames[c] }

// Conv is `reg = conv [fromty] x [to toty]`.
type Conv struct {
	VName    string
	Kind     ConvKind
	X        Value
	FromType Type // operand type annotation, when written
	ToType   Type // result type annotation, when written
}

func (*Conv) valueNode()     {}
func (*Conv) instrNode()     {}
func (v *Conv) Name() string { return v.VName }
func (v *Conv) String() string {
	s := v.VName + " = " + v.Kind.String() + " "
	if v.FromType != nil {
		s += v.FromType.String() + " "
	}
	s += refName(v.X)
	if v.ToType != nil {
		s += " to " + v.ToType.String()
	}
	return s
}

// Alloca is `reg = alloca typ, constant`: stack allocation of a number of
// elements of a type.
type Alloca struct {
	VName    string
	ElemType Type  // nil when polymorphic
	NumElems Value // constant element count (nil means 1)
}

func (*Alloca) valueNode()     {}
func (*Alloca) instrNode()     {}
func (v *Alloca) Name() string { return v.VName }
func (v *Alloca) String() string {
	s := v.VName + " = alloca"
	if v.ElemType != nil {
		s += " " + v.ElemType.String()
	}
	if v.NumElems != nil {
		s += ", " + refName(v.NumElems)
	}
	return s
}

// GEP is `reg = getelementptr ptr, idx...`: structured address arithmetic.
type GEP struct {
	VName    string
	Ptr      Value
	Indexes  []Value
	Inbounds bool
}

func (*GEP) valueNode()     {}
func (*GEP) instrNode()     {}
func (v *GEP) Name() string { return v.VName }
func (v *GEP) String() string {
	s := v.VName + " = getelementptr "
	if v.Inbounds {
		s = v.VName + " = getelementptr inbounds "
	}
	s += refName(v.Ptr)
	for _, ix := range v.Indexes {
		s += ", " + refName(ix)
	}
	return s
}

// Load is `reg = load ptr`.
type Load struct {
	VName        string
	Ptr          Value
	DeclaredType Type // pointer type annotation, when written
}

func (*Load) valueNode()     {}
func (*Load) instrNode()     {}
func (v *Load) Name() string { return v.VName }
func (v *Load) String() string {
	s := v.VName + " = load "
	if v.DeclaredType != nil {
		s += v.DeclaredType.String() + " "
	}
	return s + refName(v.Ptr)
}

// Store is `store val, ptr`; it produces no value.
type Store struct {
	Val Value
	Ptr Value
}

func (*Store) valueNode()       {}
func (*Store) instrNode()       {}
func (v *Store) Name() string   { return "" }
func (v *Store) String() string { return "store " + refName(v.Val) + ", " + refName(v.Ptr) }

// Unreachable marks a point that must not execute.
type Unreachable struct{}

func (*Unreachable) valueNode()       {}
func (*Unreachable) instrNode()       {}
func (v *Unreachable) Name() string   { return "" }
func (v *Unreachable) String() string { return "unreachable" }

// Copy is Alive's explicit assignment `reg = op`, copying a value or
// binding a constant expression to a register (e.g. `%r = 0`,
// `%2 = true`).
type Copy struct {
	VName string
	X     Value
}

func (*Copy) valueNode()       {}
func (*Copy) instrNode()       {}
func (v *Copy) Name() string   { return v.VName }
func (v *Copy) String() string { return v.VName + " = " + refName(v.X) }

// Operands returns the operand values of an instruction in order.
func Operands(in Instr) []Value { return AppendOperands(nil, in) }

// AppendOperands appends the operand values of an instruction to dst.
func AppendOperands(dst []Value, in Instr) []Value {
	switch i := in.(type) {
	case *BinOp:
		return append(dst, i.X, i.Y)
	case *ICmp:
		return append(dst, i.X, i.Y)
	case *Select:
		return append(dst, i.Cond, i.TrueV, i.FalseV)
	case *Conv:
		return append(dst, i.X)
	case *Alloca:
		if i.NumElems != nil {
			return append(dst, i.NumElems)
		}
		return dst
	case *GEP:
		return append(append(dst, i.Ptr), i.Indexes...)
	case *Load:
		return append(dst, i.Ptr)
	case *Store:
		return append(dst, i.Val, i.Ptr)
	case *Unreachable:
		return dst
	case *Copy:
		return append(dst, i.X)
	}
	panic(fmt.Sprintf("ir: unknown instruction %T", in))
}
