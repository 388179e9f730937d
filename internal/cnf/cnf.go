// Package cnf is a SatELite-style static-analysis pipeline over the
// bit-blasted clause database: the formula produced by bitblast is
// staged in a Formula instead of streaming straight into the CDCL core,
// a preprocessor rewrites it — subsumption, self-subsuming resolution,
// bounded variable elimination, blocked clause elimination, root-level
// unit saturation — and the simplified clauses are then loaded into
// sat.Solver for search.
//
// Variable elimination and blocked clause elimination only preserve
// equisatisfiability, not models. Both are therefore restricted to
// variables the caller has not frozen: a core model of the simplified
// formula is exact on every frozen variable, and the values it assigns
// them extend to a model of the original clauses. The solver's
// sessions freeze every variable the verifier reads back.
package cnf

import (
	"slices"

	"alive/internal/sat"
)

// clause is a stored clause plus a 64-bit signature over its literals
// (a bloom filter: sig(C) ⊆ sig(D) is necessary for C ⊆ D, so most
// subsumption candidates are rejected without touching the literals).
// The signature machinery itself lives in internal/sat (sat.LitSig,
// sat.ComputeSig). Clauses are stored by value in Formula.clauses, and
// lits is a window of one chunk of the formula's literal arena, capped
// at its own length so that no append can reach a neighbour.
type clause struct {
	lits    []sat.Lit
	sig     uint64
	deleted bool
	// dirty marks a clause already loaded into a CDCL core that was
	// since strengthened (self-subsuming resolution): LoadDelta re-sends
	// the shorter version, the stale core copy being merely redundant.
	dirty bool
}

func litSig(l sat.Lit) uint64 { return sat.LitSig(l) }

func computeSig(lits []sat.Lit) uint64 { return sat.ComputeSig(lits) }

// Formula is a clause database with root-level simplification on add:
// duplicate literals collapse, tautologies are dropped, literals false
// under the current root assignment are removed, and unit clauses are
// absorbed into the root assignment immediately. It implements the same
// NewVar/AddClause surface as sat.Solver, so bitblast can lower into
// either.
type Formula struct {
	nvars   int
	clauses []clause
	live    int
	// arena is the chunk of literal storage that AddClause fills. A
	// clause's literals never move: when a clause does not fit, a new
	// chunk starts and the full one stays with the clauses that point
	// into it.
	arena []sat.Lit
	// value is the root-level assignment, 1-indexed: 0 unknown, 1 true,
	// -1 false.
	value []int8
	// unitQ holds root assignments not yet saturated through the clause
	// database (saturation needs occurrence lists, which are built by
	// the preprocessor; AddClause only filters against value).
	unitQ []sat.Lit
	ok    bool

	// Incremental-session state. The formula behind a solver session
	// (internal/solver, session.go) is preprocessed and loaded into the
	// same CDCL core many times; the fields below make that sound:
	//
	//   frozen — interface variables (named inputs, memoized encoding
	//   outputs, query roots) that future AddClause calls may mention
	//   again. They must survive variable elimination, and
	//   blocked-clause elimination must not pick them as witnesses, so
	//   that (a) eliminating them never becomes unsound when later
	//   clauses arrive and (b) a core model is exact on them.
	//
	//   elim — variables removed by elimination, persistent across
	//   preprocessing calls. A later clause mentioning one is a
	//   session-protocol bug and panics in AddClause.
	//
	//   inCore — variables occurring in clauses already loaded into the
	//   core. Loaded clauses cannot be retracted, so such variables are
	//   no longer eligible for elimination either.
	//
	//   trailOut/sentUnits, sentClauses, dirtyIdx — cursors for
	//   LoadDelta: which root units and clauses the core has already
	//   received, plus loaded clauses strengthened since they were sent.
	frozen      []bool
	elim        []bool
	inCore      []bool
	trailOut    []sat.Lit
	sentUnits   int
	sentClauses int
	dirtyIdx    []int

	// The occurrence index the preprocessor works on (preprocess.go):
	// occ[int(lit)] lists, in index order, the clauses holding lit;
	// stale[int(lit)] marks a list that may hold a dead entry, and in a
	// warm call staleLits names the marked lists. occ is nil while no
	// index exists; while one does, AddClause and NewVar extend it. A
	// cold Preprocess call builds it and drops it on return, so a
	// one-shot formula holds it only while it is preprocessed; from the
	// first warm call on it is kept, compacted, between calls, and a
	// warm call pays for what it adds instead of rebuilding it.
	occ       [][]int
	stale     []bool
	staleLits []sat.Lit
	occSlab   []int // see addOcc
}

// NewFormula returns an empty formula.
func NewFormula() *Formula {
	return &Formula{
		value:  make([]int8, 1),
		frozen: make([]bool, 1),
		elim:   make([]bool, 1),
		inCore: make([]bool, 1),
		ok:     true,
	}
}

// NewVar allocates a fresh 1-based variable.
func (f *Formula) NewVar() int {
	f.nvars++
	f.value = append(f.value, 0)
	f.frozen = append(f.frozen, false)
	f.elim = append(f.elim, false)
	f.inCore = append(f.inCore, false)
	if f.occ != nil {
		f.occ = append(f.occ, nil, nil)
		f.stale = append(f.stale, false, false)
	}
	return f.nvars
}

// Freeze marks v as an interface variable: it survives variable
// elimination and never serves as a blocked-clause witness, so clauses
// added after this preprocessing round may mention it again and core
// models stay exact on it. Freezing is idempotent.
func (f *Formula) Freeze(v int) {
	if f.elim[v] {
		panic("cnf: Freeze on an eliminated variable")
	}
	f.frozen[v] = true
}

// NumVars returns the number of allocated variables.
func (f *Formula) NumVars() int { return f.nvars }

// NumClauses returns the number of live (non-unit) clauses.
func (f *Formula) NumClauses() int { return f.live }

// Ok reports whether the formula is still possibly satisfiable; it
// turns false when an added or derived clause conflicts with the root
// assignment.
func (f *Formula) Ok() bool { return f.ok }

// litValue returns the root-level truth of l: 1 true, -1 false, 0
// unassigned.
func (f *Formula) litValue(l sat.Lit) int8 {
	v := f.value[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// assign records l as true at the root. It returns false on conflict
// with an earlier assignment (and marks the formula unsatisfiable).
func (f *Formula) assign(l sat.Lit) bool {
	switch f.litValue(l) {
	case 1:
		return true
	case -1:
		f.ok = false
		return false
	}
	if l.Neg() {
		f.value[l.Var()] = -1
	} else {
		f.value[l.Var()] = 1
	}
	f.unitQ = append(f.unitQ, l)
	f.trailOut = append(f.trailOut, l)
	return true
}

// Chunk sizes of the literal arena, in literals: the first chunk is
// small, for the many small formulas, and each next one doubles up to
// the largest.
const (
	minChunk = 256
	maxChunk = 1 << 16
)

// AddClause adds a clause, simplifying against the root assignment. It
// returns false once the formula is known unsatisfiable (matching
// sat.Solver.AddClause). The kept literals are written straight into the
// arena's free tail, and a clause that is dropped leaves it free.
func (f *Formula) AddClause(lits ...sat.Lit) bool {
	if !f.ok {
		return false
	}
	if cap(f.arena)-len(f.arena) < len(lits) {
		f.arena = make([]sat.Lit, 0, max(len(lits), minChunk, min(2*cap(f.arena), maxChunk)))
	}
	start := len(f.arena)
	out := f.arena[start:start]
	var seen uint64
	for _, l := range lits {
		if f.elim[l.Var()] {
			// Only non-frozen variables are eliminated, and by the
			// session protocol no later clause may mention one.
			panic("cnf: AddClause mentions an eliminated variable")
		}
		switch f.litValue(l) {
		case 1:
			return true // satisfied at root
		case -1:
			continue // false at root: drop
		}
		dup := false
		if litSig(l)&seen != 0 {
			for _, o := range out {
				if o == l {
					dup = true
					break
				}
			}
		}
		if dup {
			continue
		}
		for _, o := range out {
			if o == l.Not() {
				return true // tautology
			}
		}
		seen |= litSig(l)
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		f.ok = false
		return false
	case 1:
		return f.assign(out[0])
	}
	f.arena = f.arena[:start+len(out)]
	out = f.arena[start:len(f.arena):len(f.arena)]
	if len(f.clauses) == cap(f.clauses) {
		// Double, where append would grow a long slice by a quarter
		// and copy it five times as often.
		f.clauses = slices.Grow(f.clauses, max(len(f.clauses), 64))
	}
	f.clauses = append(f.clauses, clause{lits: out, sig: computeSig(out)})
	f.live++
	if f.occ != nil {
		ci := len(f.clauses) - 1
		for _, l := range out {
			f.addOcc(l, ci)
		}
	}
	return true
}

// Occurrence lists with no storage yet start with room for occInit
// entries, cut from slabs of occSlabLen.
const (
	occInit    = 4
	occSlabLen = 1024
)

// addOcc appends clause ci to l's occurrence list. A list without
// storage (a variable made since the index was built, or a literal
// whose clauses buildOcc found none of) starts in a window of occSlab,
// so a warm session's new variables cost no allocation per list.
func (f *Formula) addOcc(l sat.Lit, ci int) {
	lst := f.occ[l]
	if cap(lst) == 0 {
		if len(f.occSlab) < occInit {
			f.occSlab = make([]int, occSlabLen)
		}
		lst = f.occSlab[:0:occInit]
		f.occSlab = f.occSlab[occInit:]
	}
	f.occ[l] = append(lst, ci)
}

// markDirty queues the loaded clause at index ci for re-sending: it was
// strengthened after the core received it.
func (f *Formula) markDirty(ci int) {
	c := &f.clauses[ci]
	if !c.dirty {
		c.dirty = true
		f.dirtyIdx = append(f.dirtyIdx, ci)
	}
}

// LoadDelta streams everything the CDCL core has not seen yet into it:
// new variables, root units assigned since the last load, strengthened
// versions of already-loaded clauses, and clauses added since the last
// load. Clauses the preprocessor deleted after loading are left in the
// core — subsumed and satisfied copies are redundant there, and the
// elimination passes are restricted (inCore, frozen) so they never
// remove a loaded clause's constraint. Variables of loaded clauses are
// marked ineligible for future elimination.
func (f *Formula) LoadDelta(core *sat.Solver) {
	//alive:bounded — grows the variable table to a fixed count.
	for core.NumVars() < f.nvars {
		core.NewVar()
	}
	for ; f.sentUnits < len(f.trailOut); f.sentUnits++ {
		core.AddClause(f.trailOut[f.sentUnits])
	}
	for _, ci := range f.dirtyIdx {
		c := &f.clauses[ci]
		c.dirty = false
		if !c.deleted {
			core.AddClause(c.lits...)
		}
	}
	f.dirtyIdx = f.dirtyIdx[:0]
	for ; f.sentClauses < len(f.clauses); f.sentClauses++ {
		c := &f.clauses[f.sentClauses]
		if c.deleted {
			continue
		}
		core.AddClause(c.lits...)
		for _, l := range c.lits {
			f.inCore[l.Var()] = true
		}
	}
}
