package lint

import (
	"alive/internal/ir"
	"alive/internal/typing"
)

// checkPre analyzes the precondition for conjuncts that decide
// themselves without the solver: comparisons of a value with itself,
// literal-only (sub)predicates that fold to the same truth value at
// every feasible width, directly contradictory conjunct pairs P && !P,
// and incompatible equality bindings of one constant. Unsatisfiable
// findings are errors (AL006) because the transformation can never
// fire; tautologies are warnings (AL007); foldable built-in predicates
// get their own code (AL008) so a typo like isPowerOf2(3) stands out.
func checkPre(t *ir.Transform, r *Reporter) {
	if t.Pre == nil {
		return
	}
	if _, ok := t.Pre.(ir.TruePred); ok {
		return
	}
	cs, _ := typing.Constraints(t) // nil on conflict; AL005 reports that

	fixedOf := func(v ir.Value) (int, bool) {
		if cs == nil {
			return 0, false
		}
		return cs.FixedWidth(v)
	}

	conjuncts := flattenAnd(t.Pre)
	pos := t.PrePos

	// Direct contradictions: a conjunct and its negation side by side.
	plain := map[string]bool{}
	for _, c := range conjuncts {
		if _, ok := c.(*ir.NotPred); !ok {
			plain[c.String()] = true
		}
	}
	for _, c := range conjuncts {
		if n, ok := c.(*ir.NotPred); ok && plain[n.P.String()] {
			r.report("AL006", Error, pos,
				"remove one of the two conjuncts; as written the transformation never fires",
				"precondition conjoins %s with its negation; it is unsatisfiable", n.P.String())
		}
	}

	// Equality bindings: C == lit conjuncts keyed by the bound side.
	type binding struct {
		lit ir.Value
		str string
	}
	eqs := map[string][]binding{}
	nes := map[string][]binding{}
	for _, c := range conjuncts {
		cmp, ok := c.(*ir.CmpPred)
		if !ok || (cmp.Op != ir.PEq && cmp.Op != ir.PNe) {
			continue
		}
		var bound, lit ir.Value
		switch {
		case literalOnly(cmp.Y) && !literalOnly(cmp.X):
			bound, lit = cmp.X, cmp.Y
		case literalOnly(cmp.X) && !literalOnly(cmp.Y):
			bound, lit = cmp.Y, cmp.X
		default:
			continue
		}
		m := eqs
		if cmp.Op == ir.PNe {
			m = nes
		}
		m[valueKey(bound)] = append(m[valueKey(bound)], binding{lit, c.String()})
	}
	for key, bs := range eqs {
		if len(bs) > 1 {
			first := bs[0]
			for _, b := range bs[1:] {
				w, hasW := fixedOf(b.lit)
				if _, alwaysDiffer := foldPredAtWidths(&ir.CmpPred{Op: ir.PEq, X: first.lit, Y: b.lit}, w, hasW); alwaysDiffer {
					r.report("AL006", Error, pos,
						"a constant cannot equal two different values at once",
						"precondition binds %s to incompatible constants (%s vs %s)", key, first.str, b.str)
				}
			}
		}
		for _, ne := range nes[key] {
			for _, eq := range bs {
				w, hasW := fixedOf(eq.lit)
				if alwaysEqual, _ := foldPredAtWidths(&ir.CmpPred{Op: ir.PEq, X: eq.lit, Y: ne.lit}, w, hasW); alwaysEqual {
					r.report("AL006", Error, pos,
						"the equality and the disequality exclude each other",
						"precondition conjoins %s with %s; it is unsatisfiable", eq.str, ne.str)
				}
			}
		}
	}

	// Per-conjunct verdicts.
	for _, c := range conjuncts {
		switch q := c.(type) {
		case *ir.CmpPred:
			if valueKey(q.X) == valueKey(q.Y) {
				switch q.Op {
				case ir.PEq, ir.PSle, ir.PSge, ir.PUle, ir.PUge:
					r.report("AL007", Warning, pos,
						"a value always compares reflexively equal to itself; drop the conjunct",
						"precondition conjunct %s is always true", c.String())
				default:
					r.report("AL006", Error, pos,
						"a value never compares strictly against itself; the transformation can never fire",
						"precondition conjunct %s is always false", c.String())
				}
				continue
			}
		case *ir.FuncPred:
			if reportFoldedFuncPred(r, pos, c, q, fixedOf, false) {
				continue
			}
		case *ir.NotPred:
			if fp, ok := q.P.(*ir.FuncPred); ok {
				if reportFoldedFuncPred(r, pos, c, fp, fixedOf, true) {
					continue
				}
			}
		}
		w, hasW := fixedWidthOfPred(c, fixedOf)
		alwaysTrue, alwaysFalse := foldPredAtWidths(c, w, hasW)
		if alwaysFalse {
			r.report("AL006", Error, pos,
				"the conjunct folds to false at every feasible width; the transformation can never fire",
				"precondition conjunct %s is always false", c.String())
		} else if alwaysTrue {
			r.report("AL007", Warning, pos,
				"the conjunct folds to true at every feasible width; drop it",
				"precondition conjunct %s is always true", c.String())
		}
	}
}

// reportFoldedFuncPred folds a built-in predicate whose arguments are
// all literals (AL008). Negated calls invert the verdict. It returns
// true when a diagnostic was issued.
func reportFoldedFuncPred(r *Reporter, pos ir.Pos, conjunct ir.Pred, fp *ir.FuncPred, fixedOf func(ir.Value) (int, bool), negated bool) bool {
	for _, a := range fp.Args {
		if !literalOnly(a) {
			return false
		}
	}
	var w int
	var hasW bool
	if len(fp.Args) > 0 {
		w, hasW = fixedOf(fp.Args[0])
	}
	alwaysTrue, alwaysFalse := foldPredAtWidths(fp, w, hasW)
	if negated {
		alwaysTrue, alwaysFalse = alwaysFalse, alwaysTrue
	}
	if alwaysFalse {
		r.report("AL008", Error, pos,
			"the built-in predicate folds to false over its literal arguments; the transformation can never fire",
			"precondition conjunct %s is always false", conjunct.String())
		return true
	}
	if alwaysTrue {
		r.report("AL008", Info, pos,
			"the built-in predicate folds to true over its literal arguments; drop it",
			"precondition conjunct %s is always true", conjunct.String())
		return true
	}
	return false
}

// flattenAnd splits nested conjunctions into a flat conjunct list.
func flattenAnd(p ir.Pred) []ir.Pred {
	if and, ok := p.(*ir.AndPred); ok {
		var out []ir.Pred
		for _, q := range and.Ps {
			out = append(out, flattenAnd(q)...)
		}
		return out
	}
	return []ir.Pred{p}
}

// valueKey names a value for syntactic comparison: the register name
// when it has one, the expression text otherwise.
func valueKey(v ir.Value) string {
	if n := v.Name(); n != "" {
		return n
	}
	return v.String()
}

// fixedWidthOfPred returns a pinned width for the literals of a
// predicate if the typing constraints fix the class of any operand.
func fixedWidthOfPred(p ir.Pred, fixedOf func(ir.Value) (int, bool)) (int, bool) {
	var w int
	var ok bool
	ir.WalkPred(p, func(v ir.Value) {
		if ok {
			return
		}
		w, ok = fixedOf(v)
	})
	return w, ok
}

// foldPredAtWidths evaluates a predicate whose leaves are all literals
// at the pinned width, or at every probe width representing its
// literals. It reports (alwaysTrue, alwaysFalse); both false when any
// width fails to fold or the verdict is width-dependent.
func foldPredAtWidths(p ir.Pred, fixed int, hasFixed bool) (alwaysTrue, alwaysFalse bool) {
	min := 1
	foldable := true
	ir.WalkPred(p, func(v ir.Value) {
		if !literalOnly(v) {
			foldable = false
		}
		if m := minLiteralBits(v); m > min {
			min = m
		}
	})
	if !foldable {
		return false, false
	}
	widths := probeWidths
	if hasFixed {
		widths = []int{fixed}
	} else {
		var keep []int
		for _, w := range probeWidths {
			if w >= min {
				keep = append(keep, w)
			}
		}
		widths = keep
	}
	if len(widths) == 0 {
		return false, false
	}
	trues, falses := 0, 0
	for _, w := range widths {
		switch ir.EvalPred(p, literals(w)) {
		case ir.True:
			trues++
		case ir.False:
			falses++
		default:
			return false, false
		}
	}
	return falses == 0, trues == 0
}
