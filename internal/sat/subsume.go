package sat

// This file holds the clause signatures of the CNF preprocessor
// (internal/cnf, between bit-blasting and search): 64-bit bloom filters
// over this package's Lit that reject most subsumption candidates
// before their literals are compared.

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
