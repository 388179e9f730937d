package absint

import (
	"alive/internal/bv"
	"alive/internal/smt"
)

// Refined returns an analysis that additionally assumes every given
// Bool term holds, propagating structural consequences (conjuncts,
// negations, equalities, orderings) into the abstractions of the
// subterms they constrain.
//
// The facts of a Refined analysis are valid only for models of the
// assertions: they may be used to refute the conjunction
// (Contradiction), never to rewrite the formula itself.
func Refined(asserts ...*smt.Term) *Analysis {
	an := New()
	// A few passes let facts flow both ways through the conjuncts
	// (e.g. a later equality narrowing an earlier comparison). All
	// assumptions only tighten, so early exit on no change is safe.
	for pass := 0; pass < 3; pass++ {
		changed := false
		for _, t := range asserts {
			if an.assumeTrue(t) {
				changed = true
			}
		}
		if !changed || an.contra {
			break
		}
		// New assumptions invalidate memoized values computed before
		// they existed.
		an.memo = map[*smt.Term]Value{}
	}
	return an
}

// addFact meets a new fact into the assumption for t, reporting
// whether it tightened anything.
func (an *Analysis) addFact(t *smt.Term, v Value) bool {
	old, ok := an.assume[t]
	if !ok {
		if t.Width == 0 {
			old = TopBool()
		} else {
			old = TopBV(t.Width)
		}
	}
	nv := Meet(old, v)
	if nv.IsBot() {
		an.contra = true
	}
	if abstractEq(old, nv) {
		return false
	}
	an.assume[t] = nv
	return true
}

// abstractEq reports whether two Values describe the same set.
func abstractEq(a, b Value) bool {
	if a.bot != b.bot || a.Width != b.Width {
		return false
	}
	if a.bot {
		return true
	}
	if a.Width == 0 {
		return a.B == b.B
	}
	return a.KZ.Eq(b.KZ) && a.KO.Eq(b.KO) &&
		a.ULo.Eq(b.ULo) && a.UHi.Eq(b.UHi) &&
		a.SLo.Eq(b.SLo) && a.SHi.Eq(b.SHi)
}

// assumeTrue records that Bool term t holds, recursing structurally.
// Returns whether any assumption tightened.
func (an *Analysis) assumeTrue(t *smt.Term) bool {
	changed := an.addFact(t, FromBool(true))
	switch t.Kind {
	case smt.KAnd:
		for _, a := range t.Args {
			if an.assumeTrue(a) {
				changed = true
			}
		}
	case smt.KNot:
		if an.assumeFalse(t.Args[0]) {
			changed = true
		}
	case smt.KOr:
		// If all arms but one are abstractly false, the survivor holds.
		live := -1
		for i, a := range t.Args {
			if an.Of(a).B != BFalse {
				if live >= 0 {
					return changed
				}
				live = i
			}
		}
		if live >= 0 && an.assumeTrue(t.Args[live]) {
			changed = true
		}
	case smt.KImplies:
		if an.Of(t.Args[0]).B == BTrue && an.assumeTrue(t.Args[1]) {
			changed = true
		}
		if an.Of(t.Args[1]).B == BFalse && an.assumeFalse(t.Args[0]) {
			changed = true
		}
	case smt.KEq:
		if an.assumeEq(t.Args[0], t.Args[1]) {
			changed = true
		}
	case smt.KBVUlt:
		if an.assumeOrder(t.Args[0], t.Args[1], false, true) {
			changed = true
		}
	case smt.KBVUle:
		if an.assumeOrder(t.Args[0], t.Args[1], false, false) {
			changed = true
		}
	case smt.KBVSlt:
		if an.assumeOrder(t.Args[0], t.Args[1], true, true) {
			changed = true
		}
	case smt.KBVSle:
		if an.assumeOrder(t.Args[0], t.Args[1], true, false) {
			changed = true
		}
	}
	return changed
}

// assumeFalse records that Bool term t does not hold.
func (an *Analysis) assumeFalse(t *smt.Term) bool {
	changed := an.addFact(t, FromBool(false))
	switch t.Kind {
	case smt.KNot:
		if an.assumeTrue(t.Args[0]) {
			changed = true
		}
	case smt.KOr:
		// ¬(a ∨ b ∨ …) means every arm is false.
		for _, a := range t.Args {
			if an.assumeFalse(a) {
				changed = true
			}
		}
	case smt.KAnd:
		live := -1
		for i, a := range t.Args {
			if an.Of(a).B != BTrue {
				if live >= 0 {
					return changed
				}
				live = i
			}
		}
		if live >= 0 && an.assumeFalse(t.Args[live]) {
			changed = true
		}
	case smt.KImplies:
		// ¬(a ⇒ b) means a ∧ ¬b.
		if an.assumeTrue(t.Args[0]) {
			changed = true
		}
		if an.assumeFalse(t.Args[1]) {
			changed = true
		}
	case smt.KEq:
		if an.assumeNe(t.Args[0], t.Args[1]) {
			changed = true
		}
	// A false ordering is the reversed strict/non-strict ordering.
	case smt.KBVUlt:
		if an.assumeOrder(t.Args[1], t.Args[0], false, false) {
			changed = true
		}
	case smt.KBVUle:
		if an.assumeOrder(t.Args[1], t.Args[0], false, true) {
			changed = true
		}
	case smt.KBVSlt:
		if an.assumeOrder(t.Args[1], t.Args[0], true, false) {
			changed = true
		}
	case smt.KBVSle:
		if an.assumeOrder(t.Args[1], t.Args[0], true, true) {
			changed = true
		}
	}
	return changed
}

// assumeEq meets the two sides' abstractions into each other.
func (an *Analysis) assumeEq(x, y *smt.Term) bool {
	if x.Width == 0 {
		// Bool equality: a decided side decides the other.
		changed := false
		switch an.Of(x).B {
		case BTrue:
			changed = an.assumeTrue(y) || changed
		case BFalse:
			changed = an.assumeFalse(y) || changed
		}
		switch an.Of(y).B {
		case BTrue:
			changed = an.assumeTrue(x) || changed
		case BFalse:
			changed = an.assumeFalse(x) || changed
		}
		return changed
	}
	vx, vy := an.Of(x), an.Of(y)
	m := Meet(vx, vy)
	if m.IsBot() {
		an.contra = true
	}
	changed := an.addFact(x, m)
	if an.addFact(y, m) {
		changed = true
	}
	// (x & C) = D pins the masked bits of x: where C is known one the
	// bit of x equals the corresponding bit of D.
	changed = an.assumeMaskedEq(x, y) || changed
	changed = an.assumeMaskedEq(y, x) || changed
	return changed
}

// assumeMaskedEq handles (bvand z c) = d with c, d pinned: the bits of
// z selected by c become known.
func (an *Analysis) assumeMaskedEq(lhs, rhs *smt.Term) bool {
	if lhs.Kind != smt.KBVAnd || len(lhs.Args) != 2 {
		return false
	}
	d, ok := an.Of(rhs).Singleton()
	if !ok {
		return false
	}
	for i, a := range lhs.Args {
		c, ok := an.Of(a).Singleton()
		if !ok {
			continue
		}
		z := lhs.Args[1-i]
		w := z.Width
		v := TopBV(w)
		v.KO = c.And(d)
		v.KZ = c.And(d.Not())
		return an.addFact(z, v.reduce())
	}
	return false
}

// assumeNe excludes a pinned side from the other side's interval
// endpoints.
func (an *Analysis) assumeNe(x, y *smt.Term) bool {
	if x.Width == 0 {
		changed := false
		switch an.Of(x).B {
		case BTrue:
			changed = an.assumeFalse(y) || changed
		case BFalse:
			changed = an.assumeTrue(y) || changed
		}
		switch an.Of(y).B {
		case BTrue:
			changed = an.assumeFalse(x) || changed
		case BFalse:
			changed = an.assumeTrue(x) || changed
		}
		return changed
	}
	changed := an.excludeEndpoint(x, y)
	if an.excludeEndpoint(y, x) {
		changed = true
	}
	return changed
}

func (an *Analysis) excludeEndpoint(x, y *smt.Term) bool {
	c, ok := an.Of(y).Singleton()
	if !ok {
		return false
	}
	v := an.Of(x)
	if v.IsBot() {
		an.contra = true
		return false
	}
	w := v.Width
	nv := v
	one := bv.One(w)
	if nv.ULo.Eq(c) && nv.UHi.Eq(c) {
		an.contra = true
		an.assume[x] = Bot(w)
		return true
	}
	if nv.ULo.Eq(c) {
		nv.ULo = nv.ULo.Add(one)
	}
	if nv.UHi.Eq(c) {
		nv.UHi = nv.UHi.Sub(one)
	}
	if nv.SLo.Eq(c) {
		nv.SLo = nv.SLo.Add(one)
	}
	if nv.SHi.Eq(c) {
		nv.SHi = nv.SHi.Sub(one)
	}
	if abstractEq(nv, v) {
		return false
	}
	return an.addFact(x, nv.reduce())
}

// assumeOrder narrows both sides of x < y (strict) or x <= y, in the
// unsigned or signed order.
func (an *Analysis) assumeOrder(x, y *smt.Term, signed, strict bool) bool {
	vx, vy := an.Of(x), an.Of(y)
	if vx.IsBot() || vy.IsBot() {
		return false
	}
	w := x.Width
	one := bv.One(w)
	nx, ny := TopBV(w), TopBV(w)
	if signed {
		hi, lo := vy.SHi, vx.SLo
		if strict {
			// x <s y: x <= maxY-1, y >= minX+1; maxY = INT_MIN or
			// minX = INT_MAX would make the ordering unsatisfiable,
			// and the endpoint arithmetic below would wrap, so guard.
			if hi.Eq(bv.MinSigned(w)) || lo.Eq(bv.MaxSigned(w)) {
				an.contra = true
				return false
			}
			hi = hi.Sub(one)
			lo = lo.Add(one)
		}
		nx.SHi = hi
		ny.SLo = lo
	} else {
		hi, lo := vy.UHi, vx.ULo
		if strict {
			if hi.IsZero() || lo.IsOnes() {
				an.contra = true
				return false
			}
			hi = hi.Sub(one)
			lo = lo.Add(one)
		}
		nx.UHi = hi
		ny.ULo = lo
	}
	changed := an.addFact(x, nx.reduce())
	if an.addFact(y, ny.reduce()) {
		changed = true
	}
	return changed
}
