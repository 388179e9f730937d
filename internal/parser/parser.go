package parser

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"alive/internal/faultinject"
	"alive/internal/ir"
)

// Parse parses a string containing one or more Alive transformations.
// Malformed input never panics: an internal lexer/parser panic is
// recovered and reported as an ordinary parse error.
func Parse(src string) (ts []*ir.Transform, err error) {
	defer func() {
		if r := recover(); r != nil {
			ts, err = nil, fmt.Errorf("parser: internal error: %v", r)
		}
	}()
	faultinject.Fire(faultinject.SiteParser, nil)
	lx := newLexer(stripBOM(src))
	toks, err := lx.tokens()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseFile()
}

// ParseOne parses exactly one transformation.
func ParseOne(src string) (*ir.Transform, error) {
	ts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(ts) != 1 {
		return nil, fmt.Errorf("expected exactly one transformation, found %d", len(ts))
	}
	return ts[0], nil
}

// ParseFile reads and parses a .opt file.
func ParseFile(path string) ([]*ir.Transform, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ts, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

type parser struct {
	toks []token
	pos  int
	// err is the first error found inside a construct that cannot return
	// one (an over-wide integer type); parseFile reports it in place of
	// whatever the rest of the transform parses to.
	err error

	// Per-transform state.
	srcDefs  map[string]ir.Value
	tgtDefs  map[string]ir.Value
	inputs   map[string]*ir.Input
	consts   map[string]*ir.AbstractConst
	inTarget bool
	undefSeq int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) skipNewlines() {
	for p.cur().kind == tNewline {
		p.pos++
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d:%d: %s", p.cur().line, p.cur().col, fmt.Sprintf(format, args...))
}

// pos returns the position of the current token.
func (p *parser) curPos() ir.Pos { return ir.Pos{Line: p.cur().line, Col: p.cur().col} }

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errorf("expected %s, found %s", what, p.cur())
	}
	return p.next(), nil
}

func (p *parser) atIdent(s string) bool {
	return p.cur().kind == tIdent && p.cur().text == s
}

func (p *parser) parseFile() ([]*ir.Transform, error) {
	var out []*ir.Transform
	for {
		p.skipNewlines()
		if p.cur().kind == tEOF {
			return out, nil
		}
		t, err := p.parseTransform()
		if p.err != nil {
			return nil, p.err
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

func (p *parser) parseTransform() (*ir.Transform, error) {
	t := &ir.Transform{Pre: ir.TruePred{}}
	p.srcDefs = map[string]ir.Value{}
	p.tgtDefs = map[string]ir.Value{}
	p.inputs = map[string]*ir.Input{}
	p.consts = map[string]*ir.AbstractConst{}
	p.inTarget = false

	// Headers.
	p.skipNewlines()
	t.DeclPos = p.curPos()
	for {
		p.skipNewlines()
		if p.atIdent("Name") && p.toks[p.pos+1].kind == tColon {
			p.pos += 2
			t.Name = p.restOfLine()
			continue
		}
		if p.atIdent("Pre") && p.toks[p.pos+1].kind == tColon {
			p.pos += 2
			t.PrePos = p.curPos()
			pre, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			if p.cur().kind != tNewline && p.cur().kind != tEOF {
				return nil, p.errorf("unexpected %s after precondition", p.cur())
			}
			t.Pre = pre
			continue
		}
		break
	}

	// Source template.
	for {
		p.skipNewlines()
		if p.cur().kind == tArrow {
			p.next()
			break
		}
		if p.cur().kind == tEOF {
			return nil, p.errorf("missing => separator in %q", t.Name)
		}
		at := p.curPos()
		in, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		t.Source = append(t.Source, in)
		t.SetPos(in, at)
		if n := in.Name(); n != "" {
			p.srcDefs[n] = in
		}
	}

	// Root: last named source instruction.
	for i := len(t.Source) - 1; i >= 0; i-- {
		if n := t.Source[i].Name(); n != "" {
			t.Root = n
			break
		}
	}

	// The precondition is parsed before the source template, so register
	// references to source temporaries were provisionally created as
	// inputs; rebind them to the defining instructions (Section 2.1:
	// source temporaries are in scope for the precondition).
	t.Pre = p.resolvePred(t.Pre)

	// Target template: until blank-line-separated Name:, EOF, or a new
	// transformation header.
	p.inTarget = true
	for {
		p.skipNewlines()
		if p.cur().kind == tEOF {
			break
		}
		if p.atIdent("Name") && p.toks[p.pos+1].kind == tColon {
			break
		}
		if p.atIdent("Pre") && p.toks[p.pos+1].kind == tColon {
			break
		}
		at := p.curPos()
		in, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		t.Target = append(t.Target, in)
		t.SetPos(in, at)
		if n := in.Name(); n != "" {
			p.tgtDefs[n] = in
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (p *parser) restOfLine() string {
	var sb strings.Builder
	prevWord := false
	for p.cur().kind != tNewline && p.cur().kind != tEOF {
		tok := p.next()
		word := tok.kind == tIdent || tok.kind == tNum || tok.kind == tReg
		if sb.Len() > 0 && prevWord && word {
			sb.WriteByte(' ')
		}
		sb.WriteString(tok.text)
		prevWord = word
	}
	return sb.String()
}

// lookup resolves a register reference: target defs (when parsing the
// target), then source defs, then inputs (created on demand).
func (p *parser) lookup(name string) ir.Value {
	if p.inTarget {
		if v, ok := p.tgtDefs[name]; ok {
			return v
		}
	}
	if v, ok := p.srcDefs[name]; ok {
		return v
	}
	if v, ok := p.inputs[name]; ok {
		return v
	}
	in := &ir.Input{VName: name}
	p.inputs[name] = in
	return in
}

func (p *parser) lookupConst(name string) *ir.AbstractConst {
	if c, ok := p.consts[name]; ok {
		return c
	}
	c := &ir.AbstractConst{CName: name}
	p.consts[name] = c
	return c
}

// maxIntBits is the widest integer type the parser accepts, LLVM's
// IntegerType::MAX_INT_BITS. Every later stage is at least linear in a
// width, and bit-blasting is worse, so a wider type is an error here
// rather than a hang there.
const maxIntBits = 1 << 23

// tryParseType parses a type if the next tokens form one: iN, iN*...*,
// [n x type]. Returns nil without consuming otherwise. An iN wider than
// maxIntBits sets p.err and parses as i1.
func (p *parser) tryParseType() ir.Type {
	switch p.cur().kind {
	case tIdent:
		text := p.cur().text
		if len(text) >= 2 && text[0] == 'i' && strings.Trim(text[1:], "0123456789") == "" {
			bits, err := strconv.Atoi(text[1:])
			if err != nil || bits > maxIntBits {
				if p.err == nil {
					p.err = p.errorf("integer type %s is wider than %d bits", text, maxIntBits)
				}
				bits = 1
			}
			if bits > 0 {
				p.next()
				var typ ir.Type = ir.IntType{Bits: bits}
				for p.cur().kind == tStar {
					p.next()
					typ = ir.PtrType{Elem: typ}
				}
				return typ
			}
		}
		if text == "void" {
			p.next()
			return ir.VoidType{}
		}
	case tLBracket:
		save := p.pos
		p.next()
		if p.cur().kind != tNum {
			p.pos = save
			return nil
		}
		n, _ := strconv.Atoi(p.next().text)
		if !p.atIdent("x") {
			p.pos = save
			return nil
		}
		p.next()
		elem := p.tryParseType()
		if elem == nil || p.cur().kind != tRBracket {
			p.pos = save
			return nil
		}
		p.next()
		var typ ir.Type = ir.ArrayType{N: n, Elem: elem}
		for p.cur().kind == tStar {
			p.next()
			typ = ir.PtrType{Elem: typ}
		}
		return typ
	}
	return nil
}

func (p *parser) parseStatement() (ir.Instr, error) {
	switch {
	case p.atIdent("store"):
		p.next()
		_ = p.tryParseType()
		val, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tComma, "','"); err != nil {
			return nil, err
		}
		ptrType := p.tryParseType()
		ptr, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if in, ok := ptr.(*ir.Input); ok && in.DeclaredType == nil && ptrType != nil {
			in.DeclaredType = ptrType
		}
		return &ir.Store{Val: val, Ptr: ptr}, p.endOfStatement()
	case p.atIdent("unreachable"):
		p.next()
		return &ir.Unreachable{}, p.endOfStatement()
	}
	reg, err := p.expect(tReg, "register definition")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tAssign, "'='"); err != nil {
		return nil, err
	}
	in, err := p.parseRHS(reg.text)
	if err != nil {
		return nil, err
	}
	return in, p.endOfStatement()
}

func (p *parser) endOfStatement() error {
	if p.cur().kind != tNewline && p.cur().kind != tEOF {
		return p.errorf("unexpected %s at end of statement", p.cur())
	}
	return nil
}

func (p *parser) parseRHS(name string) (ir.Instr, error) {
	if p.cur().kind == tIdent {
		word := p.cur().text
		if op, ok := ir.BinOpByName[word]; ok {
			p.next()
			return p.parseBinOp(name, op)
		}
		switch word {
		case "icmp":
			p.next()
			return p.parseICmp(name)
		case "select":
			p.next()
			return p.parseSelect(name)
		case "zext", "sext", "trunc", "bitcast", "ptrtoint", "inttoptr":
			p.next()
			return p.parseConv(name, ir.ConvByName[word])
		case "alloca":
			p.next()
			return p.parseAlloca(name)
		case "getelementptr":
			p.next()
			return p.parseGEP(name)
		case "load":
			p.next()
			return p.parseLoad(name)
		}
	}
	// Copy / constant assignment: %r = <expr>
	v, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &ir.Copy{VName: name, X: v}, nil
}

func (p *parser) parseBinOp(name string, op ir.BinOpKind) (ir.Instr, error) {
	var flags ir.Flags
	for p.cur().kind == tIdent {
		switch p.cur().text {
		case "nsw":
			flags |= ir.NSW
		case "nuw":
			flags |= ir.NUW
		case "exact":
			flags |= ir.Exact
		default:
			goto flagsDone
		}
		p.next()
	}
flagsDone:
	// Attributes invalid for the operator (e.g. nsw on a bitwise op) are
	// accepted here and reported by the linter (AL009); the verifier
	// refuses to encode them, so they can never be proved correct.
	typ := p.tryParseType()
	x, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	y, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &ir.BinOp{VName: name, Op: op, Flags: flags, X: x, Y: y, DeclaredType: typ}, nil
}

func (p *parser) parseICmp(name string) (ir.Instr, error) {
	if p.cur().kind != tIdent {
		return nil, p.errorf("expected icmp condition, found %s", p.cur())
	}
	cond, ok := ir.CondByName[p.cur().text]
	if !ok {
		return nil, p.errorf("unknown icmp condition %q", p.cur().text)
	}
	p.next()
	typ := p.tryParseType()
	x, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	y, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &ir.ICmp{VName: name, Cond: cond, X: x, Y: y, DeclaredType: typ}, nil
}

func (p *parser) parseSelect(name string) (ir.Instr, error) {
	_ = p.tryParseType() // optional i1 on the condition
	cond, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	typ := p.tryParseType()
	tv, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	typ2 := p.tryParseType()
	fv, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if typ == nil {
		typ = typ2
	}
	return &ir.Select{VName: name, Cond: cond, TrueV: tv, FalseV: fv, DeclaredType: typ}, nil
}

func (p *parser) parseConv(name string, kind ir.ConvKind) (ir.Instr, error) {
	from := p.tryParseType()
	x, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	var to ir.Type
	if p.atIdent("to") {
		p.next()
		to = p.tryParseType()
		if to == nil {
			return nil, p.errorf("expected type after 'to'")
		}
	}
	return &ir.Conv{VName: name, Kind: kind, X: x, FromType: from, ToType: to}, nil
}

func (p *parser) parseAlloca(name string) (ir.Instr, error) {
	typ := p.tryParseType()
	var n ir.Value
	if p.cur().kind == tComma {
		p.next()
		var err error
		n, err = p.parseOperand()
		if err != nil {
			return nil, err
		}
	}
	return &ir.Alloca{VName: name, ElemType: typ, NumElems: n}, nil
}

func (p *parser) parseGEP(name string) (ir.Instr, error) {
	inbounds := false
	if p.atIdent("inbounds") {
		inbounds = true
		p.next()
	}
	_ = p.tryParseType()
	ptr, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	var idx []ir.Value
	for p.cur().kind == tComma {
		p.next()
		_ = p.tryParseType()
		v, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		idx = append(idx, v)
	}
	return &ir.GEP{VName: name, Ptr: ptr, Indexes: idx, Inbounds: inbounds}, nil
}

func (p *parser) parseLoad(name string) (ir.Instr, error) {
	typ := p.tryParseType()
	ptr, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if in, ok := ptr.(*ir.Input); ok && in.DeclaredType == nil && typ != nil {
		in.DeclaredType = typ
	}
	return &ir.Load{VName: name, Ptr: ptr, DeclaredType: typ}, nil
}

// resolvePred replaces provisional Input references in a precondition
// with the source instructions that define those names.
func (p *parser) resolvePred(q ir.Pred) ir.Pred {
	switch q := q.(type) {
	case nil, ir.TruePred:
		return q
	case *ir.NotPred:
		q.P = p.resolvePred(q.P)
		return q
	case *ir.AndPred:
		for i := range q.Ps {
			q.Ps[i] = p.resolvePred(q.Ps[i])
		}
		return q
	case *ir.OrPred:
		for i := range q.Ps {
			q.Ps[i] = p.resolvePred(q.Ps[i])
		}
		return q
	case *ir.CmpPred:
		q.X = p.resolveValue(q.X)
		q.Y = p.resolveValue(q.Y)
		return q
	case *ir.FuncPred:
		for i := range q.Args {
			q.Args[i] = p.resolveValue(q.Args[i])
		}
		return q
	}
	return q
}

func (p *parser) resolveValue(v ir.Value) ir.Value {
	switch v := v.(type) {
	case *ir.Input:
		if def, ok := p.srcDefs[v.VName]; ok {
			return def
		}
		return v
	case *ir.ConstUnExpr:
		v.X = p.resolveValue(v.X)
		return v
	case *ir.ConstBinExpr:
		v.X = p.resolveValue(v.X)
		v.Y = p.resolveValue(v.Y)
		return v
	case *ir.ConstFunc:
		for i := range v.Args {
			v.Args[i] = p.resolveValue(v.Args[i])
		}
		return v
	}
	return v
}
