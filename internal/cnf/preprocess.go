package cnf

import (
	"alive/internal/faultinject"
	"alive/internal/sat"
)

// Options selects and bounds the preprocessing passes. The zero value
// enables everything with default budgets.
type Options struct {
	// NoSubsume disables backward subsumption and self-subsuming
	// resolution.
	NoSubsume bool
	// NoElim disables bounded variable elimination.
	NoElim bool
	// NoBlocked disables blocked clause elimination.
	NoBlocked bool
	// Budget is the work budget in propagation-style ticks (roughly one
	// tick per literal visited); 0 means a default. A call after
	// LoadDelta is further capped by the size of the delta. Exhausting the
	// budget stops preprocessing early, which is always sound: a
	// partially preprocessed formula is still equisatisfiable.
	Budget int64
	// MaxRounds caps fixpoint iterations of the pass pipeline; 0 means
	// a default.
	MaxRounds int
	// Stop cooperatively cancels preprocessing, like the CDCL core's
	// flag. A stopped run leaves the formula in a consistent
	// (equisatisfiable) state.
	Stop *sat.StopFlag
}

const (
	defaultBudget    = 2_000_000
	defaultMaxRounds = 5
	// warmTicksPerLit caps the budget of a warm call (one after
	// LoadDelta) at this many ticks per literal added since the load.
	warmTicksPerLit = 64
	// elimProductLimit skips variable elimination when the resolvent
	// cross product is too large to even count within reason.
	elimProductLimit = 1024
)

// Stats reports what the preprocessor did, in the same vocabulary as
// telemetry.Counters.
type Stats struct {
	Rounds              int64
	VarsEliminated      int64
	ClausesSubsumed     int64
	ClausesStrengthened int64
	ClausesBlocked      int64
	// Units is the total number of root-level assignments fixed by
	// saturation (including units absorbed at AddClause time).
	Units       int64
	VarsIn      int
	ClausesIn   int
	ClausesOut  int
	BudgetSpent int64
}

// Result is the outcome of one preprocessing run: whether it refuted
// the formula, and what it did. The simplified clauses stay in the
// Formula, which streams them into a core with LoadDelta.
type Result struct {
	// Unsat is set when preprocessing alone refuted the formula.
	Unsat bool
	Stats Stats
}

// prep is the state of one Preprocess call. The occurrence index and
// the eliminated-variable marks live on the Formula, so they persist
// across the repeated calls of an incremental session.
type prep struct {
	f *Formula
	// warm is set in a call whose index outlives it: markStale then
	// notes each list it marks, for compactOcc.
	warm   bool
	budget int64
	stop   *sat.StopFlag
	stats  *Stats
	// resolvents holds the candidate resolvents of the variable
	// eliminate is trying, back to back, and resolventEnds where each
	// one ends; both are reused from one candidate to the next.
	resolvents    []sat.Lit
	resolventEnds []int
	// queue is subsume's work list, reused from one round to the next.
	queue []int
}

// Preprocess runs the pass pipeline over f in place to a fixpoint (or
// until the budget or Stop flag halts it). Freeze the variables whose
// values the caller will read, and those later clauses may mention,
// before calling it.
func Preprocess(f *Formula, opts Options) *Result {
	res := &Result{}
	res.Stats.VarsIn = f.nvars
	res.Stats.ClausesIn = f.live
	budget := opts.Budget
	if budget <= 0 {
		budget = defaultBudget
	}
	warm := f.sentClauses > 0
	if warm {
		// A warm call: a core already holds the clauses simplified by
		// earlier calls, so effort follows what arrived since, and each
		// query of a long session pays for its own clauses.
		delta := int64(0)
		for i := f.sentClauses; i < len(f.clauses); i++ {
			if c := &f.clauses[i]; !c.deleted {
				delta += int64(len(c.lits))
			}
		}
		budget = min(budget, warmTicksPerLit*delta)
	}
	rounds := opts.MaxRounds
	if rounds <= 0 {
		rounds = defaultMaxRounds
	}
	if f.occ == nil {
		f.buildOcc()
	}
	p := &prep{
		f:      f,
		warm:   warm,
		budget: budget,
		stop:   opts.Stop,
		stats:  &res.Stats,
	}
	p.saturate()
	for round := 0; round < rounds && f.ok && !p.halted(); round++ {
		faultinject.Fire(faultinject.SitePreprocess, p.stop)
		if p.halted() {
			break
		}
		res.Stats.Rounds++
		changed := int64(0)
		if !opts.NoSubsume {
			changed += p.subsume()
		}
		if !opts.NoElim {
			changed += p.eliminate()
		}
		if !opts.NoBlocked {
			changed += p.blocked()
		}
		if changed == 0 {
			break
		}
	}
	res.Stats.ClausesOut = f.live
	res.Stats.BudgetSpent = budget - p.budget
	res.Unsat = !f.ok
	if warm {
		f.compactOcc()
	} else {
		f.occ, f.stale, f.occSlab = nil, nil, nil
	}
	return res
}

// buildOcc builds the occurrence index from the live clauses in one
// counted pass: it counts each literal's occurrences, gives each list
// its exact window of one shared array, and fills the lists in index
// order. A window's capacity ends where the next list's begins, so an
// entry added later moves that list out rather than overwrite another.
func (f *Formula) buildOcc() {
	n := 2 * (f.nvars + 1)
	start := make([]int, n+1)
	for ci := range f.clauses {
		c := &f.clauses[ci]
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			start[l+1]++
		}
	}
	for l := 1; l <= n; l++ {
		start[l] += start[l-1]
	}
	all := make([]int, start[n])
	f.occ = make([][]int, n)
	for l := range f.occ {
		f.occ[l] = all[start[l]:start[l]:start[l+1]]
	}
	f.stale = make([]bool, n)
	for ci := range f.clauses {
		c := &f.clauses[ci]
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			f.occ[l] = append(f.occ[l], ci)
		}
	}
}

// compactOcc compacts every list still marked stale. Lists only ever
// lose entries to compaction and gain them in index order, so
// afterwards each list equals a fresh buildOcc's: the next call sees
// the same lists, and the same raw lengths, as one that rebuilt them.
func (f *Formula) compactOcc() {
	for _, l := range f.staleLits {
		f.occList(l)
	}
	f.staleLits = f.staleLits[:0]
}

// spend charges n ticks against the budget.
func (p *prep) spend(n int) { p.budget -= int64(n) }

// halted reports whether preprocessing should stop: budget exhausted or
// cooperative cancellation requested.
func (p *prep) halted() bool { return p.budget <= 0 || p.stop.Stopped() }

func contains(lits []sat.Lit, l sat.Lit) bool { return sat.ContainsLit(lits, l) }

// occList returns the live occurrence list of l. A list marked stale
// is compacted in place first; the others hold only live entries.
func (f *Formula) occList(l sat.Lit) []int {
	lst := f.occ[l]
	if !f.stale[l] {
		return lst
	}
	f.stale[l] = false
	out := lst[:0]
	for _, ci := range lst {
		c := &f.clauses[ci]
		if c.deleted || !contains(c.lits, l) {
			continue
		}
		out = append(out, ci)
	}
	f.occ[l] = out
	return out
}

// markStale marks l's occurrence list as possibly holding a dead entry.
func (p *prep) markStale(l sat.Lit) {
	f := p.f
	if f.stale[l] {
		return
	}
	f.stale[l] = true
	if p.warm {
		f.staleLits = append(f.staleLits, l)
	}
}

// delete removes c from the formula and marks the occurrence lists of
// its literals stale. Every deletion goes through here, so an unmarked
// list never holds a deleted clause.
func (p *prep) delete(c *clause) {
	if c.deleted {
		return
	}
	c.deleted = true
	p.f.live--
	for _, l := range c.lits {
		p.markStale(l)
	}
}

// strip removes the literal l from c and marks l's occurrence list
// stale.
func (p *prep) strip(c *clause, l sat.Lit) {
	out := c.lits[:0]
	for _, x := range c.lits {
		if x != l {
			out = append(out, x)
		}
	}
	c.lits = out
	c.sig = computeSig(out)
	p.markStale(l)
}

// saturate propagates pending root-level units through the clause
// database: clauses satisfied by a unit are deleted, false literals are
// stripped, and clauses that shrink to units are absorbed in turn.
// After saturation no live clause mentions a root-assigned variable.
func (p *prep) saturate() {
	f := p.f
	//alive:bounded — each variable enters the unit queue at most once.
	for len(f.unitQ) > 0 && f.ok {
		l := f.unitQ[0]
		f.unitQ = f.unitQ[1:]
		p.stats.Units++
		for _, ci := range f.occList(l) {
			p.spend(1)
			p.delete(&f.clauses[ci])
		}
		for _, ci := range f.occList(l.Not()) {
			c := &f.clauses[ci]
			p.spend(len(c.lits))
			p.strip(c, l.Not())
			if len(c.lits) == 1 {
				p.delete(c)
				if !f.assign(c.lits[0]) {
					return
				}
			}
		}
		f.occ[l] = nil
		f.occ[l.Not()] = nil
	}
}

// subsume runs backward subsumption and self-subsuming resolution with
// every clause the core has not received yet as the subsuming side: a
// clause C deletes any D ⊇ C, and strengthens any D ⊇ (C \ {l}) ∪ {¬l}
// by removing ¬l. Strengthened clauses re-enter the queue. Loaded
// clauses had their turn in the call that loaded them; queueing them
// again made every query of a long session pay for the whole database.
func (p *prep) subsume() int64 {
	f := p.f
	changed := int64(0)
	p.queue = p.queue[:0]
	for ci := f.sentClauses; ci < len(f.clauses); ci++ {
		if !f.clauses[ci].deleted {
			p.queue = append(p.queue, ci)
		}
	}
	for qi := 0; qi < len(p.queue); qi++ {
		if !f.ok || p.halted() {
			break
		}
		ci := p.queue[qi]
		c := &f.clauses[ci]
		if c.deleted {
			continue
		}
		// Every D that C subsumes or strengthens holds each variable of
		// C in one polarity or the other, so the occurrences of C's
		// rarest variable hold every candidate (SatELite's backward
		// subsumption, as in MiniSat's backwardSubsumptionCheck).
		best := c.lits[0]
		for _, l := range c.lits[1:] {
			if p.occLen(l) < p.occLen(best) {
				best = l
			}
		}
		for _, l := range [2]sat.Lit{best, best.Not()} {
			for _, di := range f.occList(l) {
				if c.deleted || !f.ok {
					break
				}
				d := &f.clauses[di]
				if di == ci || d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				p.spend(len(c.lits))
				if varSig(c.sig)&^varSig(d.sig) != 0 {
					continue
				}
				flip := subsumes(c.lits, d.lits)
				if flip == unrelated {
					continue
				}
				changed++
				if flip == subsumed {
					p.delete(d)
					p.stats.ClausesSubsumed++
					continue
				}
				p.strip(d, flip.Not())
				p.stats.ClausesStrengthened++
				if len(d.lits) == 1 {
					p.delete(d)
					if !f.assign(d.lits[0]) {
						return changed
					}
					p.saturate()
				} else {
					if di < f.sentClauses {
						f.markDirty(di)
					}
					p.queue = append(p.queue, di)
				}
			}
		}
	}
	return changed
}

// occLen counts the occurrences of l's variable in both polarities,
// stale entries included.
func (p *prep) occLen(l sat.Lit) int { return len(p.f.occ[l]) + len(p.f.occ[l.Not()]) }

// varSig folds a clause signature onto variables: a literal's bit and
// its complement's are neighbours, so the result has the even bit of
// each pair set when the clause mentions the variable in either
// polarity. varSig(C) &^ varSig(D) != 0 proves that D lacks a variable
// of C, so C neither subsumes nor strengthens D.
func varSig(sig uint64) uint64 { return (sig | sig>>1) & 0x5555555555555555 }

// Answers of subsumes besides a literal to flip. Variables are
// 1-based, so neither is the literal of one.
const (
	subsumed  sat.Lit = 0
	unrelated sat.Lit = -1
)

// subsumes tests c against d in one pass, like MiniSat's
// Clause::subsumes. It returns subsumed when c ⊆ d, and a literal l of
// c when (c \ {l}) ∪ {¬l} ⊆ d: resolving c and d on l gives a clause
// that subsumes d, so ¬l can be removed from d (self-subsuming
// resolution). Otherwise it returns unrelated. No clause holds a
// literal and its complement, so each literal of c matches d at most
// one way.
func subsumes(c, d []sat.Lit) sat.Lit {
	flip := subsumed
next:
	for _, l := range c {
		for _, m := range d {
			if m == l {
				continue next
			}
			if m == l.Not() && flip == subsumed {
				flip = l
				continue next
			}
		}
		return unrelated
	}
	return flip
}

// resolve appends the resolvent of a and b on variable v to buf. When
// the resolvent is tautological it reports ok=false and returns buf
// unchanged.
func resolve(buf, a, b []sat.Lit, v int) (out []sat.Lit, ok bool) {
	start := len(buf)
	out = buf
	for _, l := range a {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l.Var() == v {
			continue
		}
		if contains(out[start:], l.Not()) {
			return buf, false
		}
		if !contains(out[start:], l) {
			out = append(out, l)
		}
	}
	return out, true
}

// eliminate runs NiVER-style bounded variable elimination: a
// non-frozen variable v is replaced by the resolvents of its positive
// and negative occurrences when that does not grow the clause count.
func (p *prep) eliminate() int64 {
	f := p.f
	changed := int64(0)
	for v := 1; v <= f.nvars; v++ {
		if !f.ok || p.halted() {
			break
		}
		if len(f.unitQ) > 0 {
			p.saturate()
			if !f.ok {
				break
			}
		}
		if f.value[v] != 0 || f.elim[v] || f.frozen[v] || f.inCore[v] {
			continue
		}
		lp, ln := sat.MkLit(v, false), sat.MkLit(v, true)
		pos := f.occList(lp)
		neg := f.occList(ln)
		if len(pos)+len(neg) == 0 || len(pos)*len(neg) > elimProductLimit {
			continue
		}
		limit := len(pos) + len(neg)
		p.resolvents, p.resolventEnds = p.resolvents[:0], p.resolventEnds[:0]
		feasible := true
		for _, pi := range pos {
			for _, ni := range neg {
				cp, cn := &f.clauses[pi], &f.clauses[ni]
				p.spend(len(cp.lits) + len(cn.lits))
				var ok bool
				p.resolvents, ok = resolve(p.resolvents, cp.lits, cn.lits, v)
				if !ok {
					continue
				}
				p.resolventEnds = append(p.resolventEnds, len(p.resolvents))
				if len(p.resolventEnds) > limit {
					feasible = false
					break
				}
			}
			if !feasible {
				break
			}
		}
		if !feasible {
			continue
		}
		for _, ci := range pos {
			p.delete(&f.clauses[ci])
		}
		for _, ci := range neg {
			p.delete(&f.clauses[ci])
		}
		f.occ[lp] = nil
		f.occ[ln] = nil
		f.elim[v] = true
		p.stats.VarsEliminated++
		changed++
		start := 0
		for _, end := range p.resolventEnds {
			// AddClause copies the resolvent and indexes what it keeps.
			f.AddClause(p.resolvents[start:end]...)
			start = end
			if !f.ok {
				return changed
			}
		}
	}
	return changed
}

// blocked runs blocked clause elimination: a clause C is blocked on a
// literal l ∈ C when every resolvent of C on l is tautological;
// removing it preserves satisfiability, and flipping l repairs any
// model that violates C, so only non-frozen literals may block.
func (p *prep) blocked() int64 {
	f := p.f
	changed := int64(0)
	// Loaded clauses (index below sentClauses) stay: they cannot be
	// retracted from the CDCL core, so removing them here would leave
	// the core over-constrained relative to the formula's model class.
	for ci := f.sentClauses; ci < len(f.clauses); ci++ {
		if !f.ok || p.halted() {
			break
		}
		c := &f.clauses[ci]
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			// A frozen witness would be unsound twice over: future
			// clauses may resolve against l, and repairing a model
			// that violates C would flip an interface variable the
			// caller reads directly.
			if f.frozen[l.Var()] {
				continue
			}
			isBlocked := true
			for _, di := range f.occList(l.Not()) {
				d := &f.clauses[di]
				p.spend(len(d.lits))
				if !tautResolvent(c.lits, d.lits, l) {
					isBlocked = false
					break
				}
			}
			if isBlocked {
				p.delete(c)
				p.stats.ClausesBlocked++
				changed++
				break
			}
		}
	}
	return changed
}

// tautResolvent reports whether resolving c and d on l (l ∈ c, ¬l ∈ d)
// yields a tautology: some other literal of c occurs negated in d.
func tautResolvent(c, d []sat.Lit, l sat.Lit) bool {
	for _, m := range c {
		if m != l && contains(d, m.Not()) {
			return true
		}
	}
	return false
}
