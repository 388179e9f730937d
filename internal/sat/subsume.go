package sat

// This file is the subsumption core of the CNF preprocessor
// (internal/cnf, between bit-blasting and search): 64-bit clause
// signatures as a subset pre-filter, plus the literal-level subsumption
// and self-subsumption predicates, over this package's Lit.

// LitSig returns the one-bit bloom signature of a literal.
func LitSig(l Lit) uint64 { return 1 << (uint32(l) % 64) }

// ComputeSig returns the 64-bit signature of a clause: the union of its
// literal signatures. sig(C) &^ sig(D) != 0 proves C ⊄ D, so most
// subsumption candidates are rejected without touching the literals.
func ComputeSig(lits []Lit) uint64 {
	var s uint64
	for _, l := range lits {
		s |= LitSig(l)
	}
	return s
}

// ContainsLit reports whether lits contains l.
func ContainsLit(lits []Lit, l Lit) bool {
	for _, x := range lits {
		if x == l {
			return true
		}
	}
	return false
}

// Subsumes reports c ⊆ d.
func Subsumes(c, d []Lit) bool {
	for _, l := range c {
		if !ContainsLit(d, l) {
			return false
		}
	}
	return true
}

// Strengthens reports (c \ {l}) ∪ {¬l} ⊆ d: resolving c and d on l
// yields a clause that subsumes d, so ¬l can be removed from d
// (self-subsuming resolution).
func Strengthens(c []Lit, l Lit, d []Lit) bool {
	for _, x := range c {
		if x == l {
			x = x.Not()
		}
		if !ContainsLit(d, x) {
			return false
		}
	}
	return true
}
