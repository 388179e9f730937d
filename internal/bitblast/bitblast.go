// Package bitblast lowers smt terms over Bool and BitVec sorts to CNF via
// Tseitin transformation, producing clauses for a sat.Solver. Circuits:
// ripple-carry adders, shift-add multipliers, restoring dividers, barrel
// shifters, and comparison chains. Every gate is encoded as a full
// equivalence so terms may appear in either polarity. Gates are
// structurally hashed: a gate whose normalized inputs match one already
// built is that gate, so a circuit built twice is encoded once.
package bitblast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"alive/internal/bv"
	"alive/internal/faultinject"
	"alive/internal/sat"
	"alive/internal/smt"
)

// ErrStopped is the panic value thrown when the Stop flag trips during
// encoding. Blasting a large term graph can itself take long enough to
// matter under a deadline, so the lowering recursion polls the flag and
// unwinds with this sentinel; callers that set Stop must recover it (the
// solver package converts it into an Unknown result).
var ErrStopped = errors.New("bitblast: encoding stopped")

// ClauseDB is the clause sink a Blaster lowers into: the CDCL solver
// itself, or a staged clause database (cnf.Formula) that a preprocessor
// rewrites before search. *sat.Solver satisfies it directly.
type ClauseDB interface {
	// NewVar allocates a fresh 1-based variable.
	NewVar() int
	// AddClause adds a clause; it returns false once the database is
	// known unsatisfiable at the root. It must copy what it keeps of
	// lits: the Blaster reuses the slice for its next clause.
	AddClause(lits ...sat.Lit) bool
	// NumVars and NumClauses report the database size for telemetry.
	NumVars() int
	NumClauses() int
}

// Blaster converts terms to clauses over a backing clause database. All
// terms passed to one Blaster must come from the same smt.Builder.
type Blaster struct {
	S ClauseDB

	// Stop, when non-nil, is polled during lowering; once it trips, the
	// encoding panics with ErrStopped.
	Stop *sat.StopFlag

	boolCache map[*smt.Term]sat.Lit
	bvCache   map[*smt.Term][]sat.Lit
	boolVars  map[string]sat.Lit
	bvVars    map[string][]sat.Lit

	// gates is the unique table: every gate built since the last
	// ForgetGates, keyed by its normalized inputs.
	gates map[gateKey]sat.Lit

	lTrue  sat.Lit
	lFalse sat.Lit

	// clause holds the clause addClause is handing to S.
	clause []sat.Lit

	stopOps int // cache-miss lowerings since the last Stop poll

	// Gates counts the fresh Tseitin gate variables introduced; a gate
	// found in the unique table is counted in Shared instead.
	Gates int

	// Shared counts unique-table hits: gates requested again, under
	// another term or from inside another circuit, and answered with
	// the literal of the gate already built.
	Shared int64

	// Hits counts memoization hits in Lit/Bits: lowerings answered from
	// the term caches instead of emitting a fresh encoding. Within one
	// query this measures DAG sharing; across the queries of an
	// incremental session it measures encodings reused between queries.
	Hits int64
}

// checkStop polls the stop flag once per stopCheckInterval cache-miss
// lowerings; tripping unwinds the recursion with ErrStopped.
const stopCheckInterval = 1024

func (bl *Blaster) checkStop() {
	if bl.Stop == nil {
		return
	}
	bl.stopOps++
	// Chaos builds poll every lowering so injected faults land (and are
	// observed) even on formulas far smaller than the poll interval.
	if bl.stopOps < stopCheckInterval && !faultinject.Enabled {
		return
	}
	bl.stopOps = 0
	faultinject.Fire(faultinject.SiteBitblast, bl.Stop)
	if bl.Stop.Stopped() {
		panic(ErrStopped)
	}
}

// Stats summarizes one Blaster's encoding work for telemetry: fresh
// Tseitin gate variables introduced, distinct Bool and BitVec terms
// lowered (cache entries, so shared subterms count once), and named
// problem variables bound.
type Stats struct {
	Gates     int
	BoolTerms int
	BVTerms   int
	Vars      int
}

// EncodeStats reports the encoding work done so far.
func (bl *Blaster) EncodeStats() Stats {
	return Stats{
		Gates:     bl.Gates,
		BoolTerms: len(bl.boolCache),
		BVTerms:   len(bl.bvCache),
		Vars:      len(bl.boolVars) + len(bl.bvVars),
	}
}

// New returns a Blaster over the clause database s.
func New(s ClauseDB) *Blaster {
	bl := &Blaster{
		S:         s,
		boolCache: map[*smt.Term]sat.Lit{},
		bvCache:   map[*smt.Term][]sat.Lit{},
		boolVars:  map[string]sat.Lit{},
		bvVars:    map[string][]sat.Lit{},
		gates:     map[gateKey]sat.Lit{},
	}
	v := s.NewVar()
	bl.lTrue = sat.MkLit(v, false)
	bl.lFalse = bl.lTrue.Not()
	s.AddClause(bl.lTrue)
	return bl
}

// addClause adds a gate's clause through a buffer the Blaster owns: a
// variadic call through the interface would move every argument list
// to the heap.
func (bl *Blaster) addClause(lits ...sat.Lit) {
	bl.clause = append(bl.clause[:0], lits...)
	bl.S.AddClause(bl.clause...)
}

func (bl *Blaster) fresh() sat.Lit {
	bl.Gates++
	return sat.MkLit(bl.S.NewVar(), false)
}

// gateKey identifies a gate by its kind (smt.KAnd, smt.KXor or
// smt.KIte) and normalized inputs: up to three in a, b and c, or, for
// an AND of more than three, all of them packed into wide. Literal 0 is
// never a real literal, so a two-input key cannot collide with a
// three-input one.
type gateKey struct {
	op      smt.Kind
	a, b, c sat.Lit
	wide    string
}

// lookup returns the gate registered under k, counting the hit.
func (bl *Blaster) lookup(k gateKey) (sat.Lit, bool) {
	g, ok := bl.gates[k]
	if ok {
		bl.Shared++
	}
	return g, ok
}

// ForgetGates empties the unique table, keeping its storage for the
// next query, so later lowerings build fresh gates instead of returning
// ones built so far. A gate variable that is not an interface variable
// (see EachInterfaceVar) may be eliminated once the clauses that define
// it are preprocessed, and then no later clause may mention it, so a
// session calls this before each query.
func (bl *Blaster) ForgetGates() {
	clear(bl.gates)
}

// constLit returns the literal for a Boolean constant.
func (bl *Blaster) constLit(v bool) sat.Lit {
	if v {
		return bl.lTrue
	}
	return bl.lFalse
}

// mkAnd returns a literal equivalent to the conjunction of lits. The
// inputs are normalized first: constants and duplicates dropped, a
// complementary pair folded to false, the rest sorted.
func (bl *Blaster) mkAnd(lits ...sat.Lit) sat.Lit {
	var buf [3]sat.Lit
	in := buf[:0]
	for _, l := range lits {
		if l == bl.lFalse {
			return bl.lFalse
		}
		if l != bl.lTrue {
			in = append(in, l)
		}
	}
	// Sorted, a literal sits next to its duplicates and its complement.
	slices.Sort(in)
	n := 0
	for _, l := range in {
		if n > 0 && l.Var() == in[n-1].Var() {
			if l != in[n-1] {
				return bl.lFalse
			}
			continue
		}
		in[n] = l
		n++
	}
	in = in[:n]
	var k gateKey
	switch len(in) {
	case 0:
		return bl.lTrue
	case 1:
		return in[0]
	case 2:
		k = gateKey{op: smt.KAnd, a: in[0], b: in[1]}
	case 3:
		k = gateKey{op: smt.KAnd, a: in[0], b: in[1], c: in[2]}
	default:
		w := make([]byte, 0, 4*len(in))
		for _, l := range in {
			w = binary.LittleEndian.AppendUint32(w, uint32(l))
		}
		k = gateKey{op: smt.KAnd, wide: string(w)}
	}
	if g, ok := bl.lookup(k); ok {
		return g
	}
	g := bl.fresh()
	// g -> each l ; (all l) -> g
	for _, l := range in {
		bl.addClause(g.Not(), l)
	}
	long := bl.clause[:0]
	for _, l := range in {
		long = append(long, l.Not())
	}
	bl.clause = append(long, g)
	bl.S.AddClause(bl.clause...)
	bl.gates[k] = g
	return g
}

// mkOr returns a literal equivalent to the disjunction of lits.
func (bl *Blaster) mkOr(lits ...sat.Lit) sat.Lit {
	var buf [3]sat.Lit
	neg := buf[:0]
	for _, l := range lits {
		neg = append(neg, l.Not())
	}
	return bl.mkAnd(neg...).Not()
}

// mkXor returns a literal equivalent to a ^ b. Since ¬a ^ b = ¬(a ^ b),
// the gate is built over the positive inputs, in order, and the output
// carries their negations.
func (bl *Blaster) mkXor(a, c sat.Lit) sat.Lit {
	if a == bl.lFalse {
		return c
	}
	if c == bl.lFalse {
		return a
	}
	if a == bl.lTrue {
		return c.Not()
	}
	if c == bl.lTrue {
		return a.Not()
	}
	if a == c {
		return bl.lFalse
	}
	if a == c.Not() {
		return bl.lTrue
	}
	neg := a.Neg() != c.Neg()
	a, c = sat.MkLit(a.Var(), false), sat.MkLit(c.Var(), false)
	if c < a {
		a, c = c, a
	}
	k := gateKey{op: smt.KXor, a: a, b: c}
	g, ok := bl.lookup(k)
	if !ok {
		g = bl.fresh()
		bl.addClause(g.Not(), a, c)
		bl.addClause(g.Not(), a.Not(), c.Not())
		bl.addClause(g, a.Not(), c)
		bl.addClause(g, a, c.Not())
		bl.gates[k] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// mkIte returns a literal equivalent to cond ? a : b. The gate is built
// with a positive condition and a positive then-arm: ite(¬s, a, b) is
// ite(s, b, a), and ite(s, ¬a, b) is ¬ite(s, a, ¬b).
func (bl *Blaster) mkIte(cond, a, c sat.Lit) sat.Lit {
	if cond == bl.lTrue {
		return a
	}
	if cond == bl.lFalse {
		return c
	}
	if a == c {
		return a
	}
	if a == bl.lTrue && c == bl.lFalse {
		return cond
	}
	if a == bl.lFalse && c == bl.lTrue {
		return cond.Not()
	}
	if cond.Neg() {
		cond, a, c = cond.Not(), c, a
	}
	neg := a.Neg()
	if neg {
		a, c = a.Not(), c.Not()
	}
	k := gateKey{op: smt.KIte, a: cond, b: a, c: c}
	g, ok := bl.lookup(k)
	if !ok {
		g = bl.fresh()
		bl.addClause(g.Not(), cond.Not(), a)
		bl.addClause(g.Not(), cond, c)
		bl.addClause(g, cond.Not(), a.Not())
		bl.addClause(g, cond, c.Not())
		// Redundant but strengthens propagation.
		bl.addClause(g.Not(), a, c)
		bl.addClause(g, a.Not(), c.Not())
		bl.gates[k] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// mkEquiv returns a literal equivalent to (a <-> b).
func (bl *Blaster) mkEquiv(a, c sat.Lit) sat.Lit { return bl.mkXor(a, c).Not() }

// fullAdder returns (sum, carryOut) for a + b + cin.
func (bl *Blaster) fullAdder(a, c, cin sat.Lit) (sum, cout sat.Lit) {
	sum = bl.mkXor(bl.mkXor(a, c), cin)
	cout = bl.mkOr(bl.mkAnd(a, c), bl.mkAnd(a, cin), bl.mkAnd(c, cin))
	return
}

// adder returns a + b + cin over equal-width vectors.
func (bl *Blaster) adder(a, c []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	carry := cin
	for i := range a {
		out[i], carry = bl.fullAdder(a[i], c[i], carry)
	}
	return out
}

func (bl *Blaster) negate(a []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(a))
	for i, l := range a {
		inv[i] = l.Not()
	}
	zero := make([]sat.Lit, len(a))
	for i := range zero {
		zero[i] = bl.lFalse
	}
	return bl.adder(inv, zero, bl.lTrue)
}

// sub returns a - b as a + ~b + 1.
func (bl *Blaster) sub(a, c []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(c))
	for i, l := range c {
		inv[i] = l.Not()
	}
	return bl.adder(a, inv, bl.lTrue)
}

// ult returns the literal for a <u b.
func (bl *Blaster) ult(a, c []sat.Lit) sat.Lit {
	lt := bl.lFalse
	for i := 0; i < len(a); i++ {
		bitLt := bl.mkAnd(a[i].Not(), c[i])
		eq := bl.mkEquiv(a[i], c[i])
		lt = bl.mkOr(bitLt, bl.mkAnd(eq, lt))
	}
	return lt
}

// slt returns the literal for a <s b (flip sign bits and compare
// unsigned).
func (bl *Blaster) slt(a, c []sat.Lit) sat.Lit {
	fa := append([]sat.Lit{}, a...)
	fc := append([]sat.Lit{}, c...)
	fa[len(fa)-1] = fa[len(fa)-1].Not()
	fc[len(fc)-1] = fc[len(fc)-1].Not()
	return bl.ult(fa, fc)
}

// eqVec returns the literal for bitwise equality of a and b.
func (bl *Blaster) eqVec(a, c []sat.Lit) sat.Lit {
	parts := make([]sat.Lit, len(a))
	for i := range a {
		parts[i] = bl.mkEquiv(a[i], c[i])
	}
	return bl.mkAnd(parts...)
}

// iteVec returns cond ? a : b bitwise.
func (bl *Blaster) iteVec(cond sat.Lit, a, c []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i := range a {
		out[i] = bl.mkIte(cond, a[i], c[i])
	}
	return out
}

// shiftConst returns a shifted by the constant amount k in direction dir
// ("shl"/"lshr"), filling with fill.
func shiftConst(a []sat.Lit, k int, left bool, fill sat.Lit) []sat.Lit {
	n := len(a)
	out := make([]sat.Lit, n)
	for i := range out {
		var src int
		if left {
			src = i - k
		} else {
			src = i + k
		}
		if src < 0 || src >= n {
			out[i] = fill
		} else {
			out[i] = a[src]
		}
	}
	return out
}

// barrelShift computes a shifted by amount sh (same width), with semantics
// selected by left and fill (fill is the incoming bit: false for shl/lshr,
// the sign bit for ashr). Shift amounts >= width produce all-fill.
func (bl *Blaster) barrelShift(a, sh []sat.Lit, left bool, fill sat.Lit) []sat.Lit {
	n := len(a)
	cur := append([]sat.Lit{}, a...)
	// Stages for each bit of the shift amount that can be < n.
	for k := 0; k < len(sh) && (1<<uint(k)) < n; k++ {
		shifted := shiftConst(cur, 1<<uint(k), left, fill)
		cur = bl.iteVec(sh[k], shifted, cur)
	}
	// If sh >= n, the result is all fill bits.
	width := len(sh)
	nBits := make([]sat.Lit, width)
	for i := range nBits {
		if uint64(n)>>uint(i)&1 == 1 {
			nBits[i] = bl.lTrue
		} else {
			nBits[i] = bl.lFalse
		}
	}
	ge := bl.ult(sh, nBits).Not()
	allFill := make([]sat.Lit, n)
	for i := range allFill {
		allFill[i] = fill
	}
	return bl.iteVec(ge, allFill, cur)
}

// udivrem builds the restoring-division circuit, returning quotient and
// remainder. For a zero divisor the circuit yields q = all-ones and
// r = a, matching the SMT-LIB convention.
func (bl *Blaster) udivrem(a, d []sat.Lit) (q, r []sat.Lit) {
	n := len(a)
	q = make([]sat.Lit, n)
	r = make([]sat.Lit, n)
	for i := range r {
		r[i] = bl.lFalse
	}
	for i := n - 1; i >= 0; i-- {
		// r = (r << 1) | a[i]
		r = append([]sat.Lit{a[i]}, r[:n-1]...)
		ge := bl.ult(r, d).Not()
		r = bl.iteVec(ge, bl.sub(r, d), r)
		q[i] = ge
	}
	return q, r
}

// Bits returns the literal vector (LSB first) for a BitVec term.
func (bl *Blaster) Bits(t *smt.Term) []sat.Lit {
	if t.IsBool() {
		panic("bitblast: Bits of Bool term")
	}
	if out, ok := bl.bvCache[t]; ok {
		bl.Hits++
		return out
	}
	bl.checkStop()
	var out []sat.Lit
	switch t.Kind {
	case smt.KBVConst:
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = bl.constLit(t.Val.Bit(i) == 1)
		}
	case smt.KVar:
		if v, ok := bl.bvVars[t.Name]; ok {
			out = v
		} else {
			out = make([]sat.Lit, t.Width)
			for i := range out {
				out[i] = sat.MkLit(bl.S.NewVar(), false)
			}
			bl.bvVars[t.Name] = out
		}
	case smt.KIte:
		c := bl.Lit(t.Args[0])
		out = bl.iteVec(c, bl.Bits(t.Args[1]), bl.Bits(t.Args[2]))
	case smt.KBVNeg:
		out = bl.negate(bl.Bits(t.Args[0]))
	case smt.KBVNot:
		a := bl.Bits(t.Args[0])
		out = make([]sat.Lit, len(a))
		for i, l := range a {
			out[i] = l.Not()
		}
	case smt.KBVAnd, smt.KBVOr, smt.KBVXor:
		a, c := bl.Bits(t.Args[0]), bl.Bits(t.Args[1])
		out = make([]sat.Lit, len(a))
		for i := range a {
			switch t.Kind {
			case smt.KBVAnd:
				out[i] = bl.mkAnd(a[i], c[i])
			case smt.KBVOr:
				out[i] = bl.mkOr(a[i], c[i])
			default:
				out[i] = bl.mkXor(a[i], c[i])
			}
		}
	case smt.KBVAdd:
		out = bl.adder(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]), bl.lFalse)
	case smt.KBVSub:
		out = bl.sub(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
	case smt.KBVMul:
		a, c := bl.Bits(t.Args[0]), bl.Bits(t.Args[1])
		n := len(a)
		acc := make([]sat.Lit, n)
		for i := range acc {
			acc[i] = bl.lFalse
		}
		for i := 0; i < n; i++ {
			// partial = (a & c[i]-replicated) << i
			partial := make([]sat.Lit, n)
			for j := range partial {
				if j < i {
					partial[j] = bl.lFalse
				} else {
					partial[j] = bl.mkAnd(a[j-i], c[i])
				}
			}
			acc = bl.adder(acc, partial, bl.lFalse)
		}
		out = acc
	case smt.KBVUdiv:
		q, _ := bl.udivrem(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
		out = q
	case smt.KBVUrem:
		_, r := bl.udivrem(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
		out = r
	case smt.KBVSdiv, smt.KBVSrem:
		a, d := bl.Bits(t.Args[0]), bl.Bits(t.Args[1])
		sa, sd := a[len(a)-1], d[len(d)-1]
		absA := bl.iteVec(sa, bl.negate(a), a)
		absD := bl.iteVec(sd, bl.negate(d), d)
		q, r := bl.udivrem(absA, absD)
		if t.Kind == smt.KBVSdiv {
			neg := bl.mkXor(sa, sd)
			out = bl.iteVec(neg, bl.negate(q), q)
		} else {
			out = bl.iteVec(sa, bl.negate(r), r)
		}
	case smt.KBVShl:
		out = bl.barrelShift(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]), true, bl.lFalse)
	case smt.KBVLshr:
		out = bl.barrelShift(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]), false, bl.lFalse)
	case smt.KBVAshr:
		a := bl.Bits(t.Args[0])
		out = bl.barrelShift(a, bl.Bits(t.Args[1]), false, a[len(a)-1])
	case smt.KZExt:
		a := bl.Bits(t.Args[0])
		out = make([]sat.Lit, t.Width)
		copy(out, a)
		for i := len(a); i < t.Width; i++ {
			out[i] = bl.lFalse
		}
	case smt.KSExt:
		a := bl.Bits(t.Args[0])
		out = make([]sat.Lit, t.Width)
		copy(out, a)
		for i := len(a); i < t.Width; i++ {
			out[i] = a[len(a)-1]
		}
	case smt.KExtract:
		a := bl.Bits(t.Args[0])
		out = append([]sat.Lit{}, a[t.Lo:t.Hi+1]...)
	case smt.KConcat:
		hi, lo := bl.Bits(t.Args[0]), bl.Bits(t.Args[1])
		out = append(append([]sat.Lit{}, lo...), hi...)
	default:
		panic(fmt.Sprintf("bitblast: unexpected BV kind in %s", t))
	}
	if len(out) != t.Width {
		panic(fmt.Sprintf("bitblast: produced %d bits for width-%d term %s", len(out), t.Width, t))
	}
	bl.bvCache[t] = out
	return out
}

// Lit returns the literal for a Bool term.
func (bl *Blaster) Lit(t *smt.Term) sat.Lit {
	if !t.IsBool() {
		panic("bitblast: Lit of BitVec term")
	}
	if l, ok := bl.boolCache[t]; ok {
		bl.Hits++
		return l
	}
	bl.checkStop()
	var out sat.Lit
	switch t.Kind {
	case smt.KBoolConst:
		out = bl.constLit(t.BVal)
	case smt.KVar:
		if l, ok := bl.boolVars[t.Name]; ok {
			out = l
		} else {
			out = sat.MkLit(bl.S.NewVar(), false)
			bl.boolVars[t.Name] = out
		}
	case smt.KNot:
		out = bl.Lit(t.Args[0]).Not()
	case smt.KAnd:
		ls := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			ls[i] = bl.Lit(a)
		}
		out = bl.mkAnd(ls...)
	case smt.KOr:
		ls := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			ls[i] = bl.Lit(a)
		}
		out = bl.mkOr(ls...)
	case smt.KXor:
		out = bl.mkXor(bl.Lit(t.Args[0]), bl.Lit(t.Args[1]))
	case smt.KImplies:
		out = bl.mkOr(bl.Lit(t.Args[0]).Not(), bl.Lit(t.Args[1]))
	case smt.KEq:
		if t.Args[0].IsBool() {
			out = bl.mkEquiv(bl.Lit(t.Args[0]), bl.Lit(t.Args[1]))
		} else {
			out = bl.eqVec(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
		}
	case smt.KIte:
		out = bl.mkIte(bl.Lit(t.Args[0]), bl.Lit(t.Args[1]), bl.Lit(t.Args[2]))
	case smt.KBVUlt:
		out = bl.ult(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
	case smt.KBVUle:
		out = bl.ult(bl.Bits(t.Args[1]), bl.Bits(t.Args[0])).Not()
	case smt.KBVSlt:
		out = bl.slt(bl.Bits(t.Args[0]), bl.Bits(t.Args[1]))
	case smt.KBVSle:
		out = bl.slt(bl.Bits(t.Args[1]), bl.Bits(t.Args[0])).Not()
	default:
		panic(fmt.Sprintf("bitblast: unexpected Bool kind in %s", t))
	}
	bl.boolCache[t] = out
	return out
}

// Assert forces the Bool term t to hold.
func (bl *Blaster) Assert(t *smt.Term) {
	bl.S.AddClause(bl.Lit(t))
}

// EachInterfaceVar calls fn for every variable a future lowering over
// this Blaster may hand out again: the constant-true variable, every
// named problem variable, and every memoized encoding output (cache
// entries are returned verbatim on a hit, so clauses added by later
// queries can mention exactly these variables). Any other gate variable
// is handed out again only through the unique table, so the set is
// complete only if ForgetGates runs between the lowering of one query
// and the next: then an internal gate is mentioned only by clauses of
// the query that built it. An incremental session freezes exactly this
// set before each preprocessing round. Iteration order is unspecified;
// callers must be order-insensitive (freezing is).
func (bl *Blaster) EachInterfaceVar(fn func(v int)) {
	fn(bl.lTrue.Var())
	for _, l := range bl.boolCache {
		fn(l.Var())
	}
	for _, bits := range bl.bvCache {
		for _, l := range bits {
			fn(l.Var())
		}
	}
	for _, l := range bl.boolVars {
		fn(l.Var())
	}
	for _, bits := range bl.bvVars {
		for _, l := range bits {
			fn(l.Var())
		}
	}
}

// BVVarValue reads the model value of a BitVec variable after a Sat
// result, given a variable-truth reader such as sat.Solver.ValueOf;
// missing variables (never blasted) read as zero.
func (bl *Blaster) BVVarValue(name string, width int, value func(v int) bool) bv.Vec {
	bits, ok := bl.bvVars[name]
	if !ok {
		return bv.Zero(width)
	}
	v := bv.Zero(width)
	for i, l := range bits {
		val := value(l.Var())
		if l.Neg() {
			val = !val
		}
		if val {
			v = v.Or(bv.One(width).Shl(bv.New(width, uint64(i))))
		}
	}
	return v
}

// BoolVarValue reads the model value of a Bool variable after Sat,
// given a variable-truth reader.
func (bl *Blaster) BoolVarValue(name string, value func(v int) bool) bool {
	l, ok := bl.boolVars[name]
	if !ok {
		return false
	}
	val := value(l.Var())
	if l.Neg() {
		val = !val
	}
	return val
}
