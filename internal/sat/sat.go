// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation,
// first-UIP conflict analysis with recursive clause minimization, EVSIDS
// variable activity, phase saving, Luby restarts, and learned-clause
// database reduction. It is the decision procedure underneath the
// bitvector layer.
package sat

import (
	"cmp"
	"fmt"
	"slices"

	"alive/internal/faultinject"
)

// Lit is a literal: variable v (1-based) encoded as v<<1, negated as
// v<<1|1. The zero Lit is invalid.
type Lit int32

// MkLit builds a literal for the 1-based variable v; neg selects the
// negative polarity.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the 1-based variable of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negative literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Value is a ternary truth value.
type Value int8

// Truth values: Unassigned is the zero value.
const (
	Unassigned Value = iota
	True
	False
)

// Status is the result of a Solve call.
type Status int

// Solver outcomes. Unknown is returned when the conflict or propagation
// budget is exhausted.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Learned-clause tiers, in increasing order of worth. The tier drives
// the three-tier database policy: core clauses (LBD ≤ coreLBDCut) are
// kept forever, tier2 clauses (LBD ≤ tier2LBDCut) survive until they go
// unused for tier2Stale conflicts, and local clauses are the reduction
// pool. Problem clauses have no tier and are never reduced.
const (
	tierLocal int8 = iota
	tierTwo
	tierCore
)

const (
	coreLBDCut  = 3
	tier2LBDCut = 6
	// tier2Stale demotes a tier2 clause to local after this many
	// conflicts without participating in conflict analysis.
	tier2Stale = 30000
)

// cref is a clause's offset in the solver's arena; 0 is no clause. The
// arena holds each clause inline: a header word, the clause's literals,
// and, for a learnt clause, a trailing word that indexes its clauseMeta.
// The header is the literal count shifted left by hdrShift, or'ed with
// the flags below. Watchers and reasons hold crefs, not pointers, so the
// garbage collector never scans them; offsets limit the arena to 2^32
// words.
type cref uint32

// Clause header flags.
const (
	hdrLearnt  = 1 << 0 // also the length of the trailing metadata index
	hdrDeleted = 1 << 1 // removed from the database; its words are dead
	hdrShift   = 2
)

// clauseMeta is what the database policy tracks for a learnt clause.
type clauseMeta struct {
	activity float64
	touched  int64 // conflict count at last use in conflict analysis
	lbd      int32 // literal block distance
	tier     int8
}

type watcher struct {
	c       cref
	blocker Lit
}

type varData struct {
	level    int32 // decision level of the assignment
	reason   cref
	activity float64
	phase    bool // saved phase: last assigned polarity (true = positive)
	seen     bool // scratch for conflict analysis
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	vars []varData // index 0 unused
	// vals[l] is the current value of literal l. Both literals of a
	// variable are written on assignment and cleared on backtrack, so
	// reading a literal's value is one load with no branch on polarity.
	vals    []Value
	watches [][]watcher
	// watchSlab is carved into the first storage of each watch list, so
	// a list of up to watchInit watchers costs no allocation of its own;
	// a list that outgrows its window moves to an array of its own.
	watchSlab []watcher

	// arena stores every clause (see cref); arena[0] pads offset 0.
	// metas holds the learnt clauses' metadata, and wasted counts the
	// arena words of deleted clauses, reclaimed by compact.
	arena      []Lit
	metas      []clauseMeta
	wasted     int
	numClauses int    // problem clauses stored
	learnts    []cref // live learnt clauses, in arena order

	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	varInc    float64
	clauseInc float64

	order *varHeap

	conflicts    int64
	decisions    int64
	propagations int64
	restarts     int64
	learned      int64

	// lbdStamp/lbdGen implement the per-level stamp set behind
	// computeLBD: stamping a level with the current generation counts
	// each decision level once without clearing between calls.
	lbdStamp []int64
	lbdGen   int64

	// nextReduce is the conflict count that triggers the next
	// learned-clause database reduction; the interval grows linearly
	// with each reduction (glucose-style).
	nextReduce int64

	// LBD-driven restart state (glucose-style): a ring of the most
	// recent learnt LBDs against the running mean of all learnt LBDs —
	// when recent conflicts produce markedly worse (higher-LBD) clauses
	// than the historical average, the current branch is judged
	// unproductive and the search restarts. trailEma tracks the mean
	// trail size at conflicts; a conflict with a much larger trail than
	// usual suggests the solver is close to a model, and the restart is
	// blocked (the ring is cleared) so it can finish.
	lbdRing    [lbdRingSize]int32
	lbdRingSum int64
	lbdRingLen int
	lbdRingPos int
	sumLBD     int64 // total LBD over all learnt clauses this solve
	solveBase  int64 // s.conflicts at Solve entry, denominator base for sumLBD
	trailEma   float64

	// Clause-database counters.
	lbdCore      int64
	dbReductions int64

	// MaxConflicts bounds the search; <= 0 means unbounded. When the bound
	// is hit Solve returns Unknown.
	MaxConflicts int64

	// OnSample, when non-nil, is called with a snapshot of the search
	// internals at every restart boundary and on every Unknown exit
	// from Solve (budget exhausted or stop-flag fired) — so even a
	// deadline-killed solve emits at least one sample once search has
	// begun. The hook keeps the SAT core free of metrics imports: the
	// observability layer owns what the snapshots mean. When nil the
	// cost is a single pointer test per restart.
	OnSample func(SampleStats)

	// Stop, when non-nil, is polled every stopPollInterval propagations;
	// once it reports stopped, Solve abandons the search and returns
	// Unknown. Interrupted distinguishes that outcome from a conflict
	// budget exhaustion.
	Stop *StopFlag

	nextStopPoll int64 // propagation count of the next Stop poll

	ok bool // false once the clause set is trivially unsat

	assumptions []Lit
	conflictSet []Lit // the assumptions the final conflict rests on
	model       []bool

	// Scratch buffers owned by the solver, so that a conflict allocates
	// nothing: the learnt clause under construction, the variables whose
	// seen marks analysis must clear, the walk stack of minimization and
	// of the assumption-conflict walk, probing's saved phases and the
	// literals its first phase implied, and reduceDB's candidates.
	learntBuf []Lit
	toClear   []int
	stack     []Lit
	phaseBuf  []bool
	probeBuf  []Lit
	reduceBuf []cref
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, clauseInc: 1, ok: true}
	s.arena = make([]Lit, 1)
	s.vars = make([]varData, 1)
	s.vals = make([]Value, 2)
	s.watches = make([][]watcher, 2)
	s.order = newVarHeap(s)
	return s
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	v := len(s.vars)
	s.vars = append(s.vars, varData{})
	s.vals = append(s.vals, Unassigned, Unassigned)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vars) - 1 }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return s.numClauses }

// NumLearnts returns the number of learnt clauses currently retained in
// the database. Across incremental Solve calls this is the knowledge
// carried from one query to the next.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Conflicts returns the number of conflicts encountered so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Propagations returns the number of unit propagations performed.
func (s *Solver) Propagations() int64 { return s.propagations }

// Decisions returns the number of branching decisions made.
func (s *Solver) Decisions() int64 { return s.decisions }

// Restarts returns the number of Luby restarts taken.
func (s *Solver) Restarts() int64 { return s.restarts }

// Learned returns the number of conflict-derived clauses (including
// learned units).
func (s *Solver) Learned() int64 { return s.learned }

// LBDCore returns the number of learnt clauses that entered the core
// tier (LBD ≤ coreLBDCut at learn time or by later improvement).
func (s *Solver) LBDCore() int64 { return s.lbdCore }

// DBReductions returns the number of learned-clause database
// reductions performed.
func (s *Solver) DBReductions() int64 { return s.dbReductions }

// Interrupted reports whether the Stop flag has tripped — after an
// Unknown result it distinguishes cancellation from conflict-budget
// exhaustion.
func (s *Solver) Interrupted() bool { return s.Stop.Stopped() }

// Ok reports whether the clause database is still consistent at the
// root. False means an AddClause or a root-level conflict refuted the
// clause set outright, with no assumptions involved; an incremental
// caller whose base is satisfiable by construction treats that as an
// internal error.
func (s *Solver) Ok() bool { return s.ok }

func (s *Solver) value(l Lit) Value { return s.vals[l] }

func (s *Solver) level(v int) int { return int(s.vars[v].level) }

// lits returns the literals of clause c, in place in the arena.
func (s *Solver) lits(c cref) []Lit {
	n := cref(s.arena[c] >> hdrShift)
	return s.arena[c+1 : c+1+n]
}

// clauseEnd returns the offset just past clause c.
func (s *Solver) clauseEnd(c cref) cref {
	h := s.arena[c]
	return c + 1 + cref(h>>hdrShift) + cref(h&hdrLearnt)
}

// meta returns the metadata of the learnt clause c.
func (s *Solver) meta(c cref) *clauseMeta {
	return &s.metas[s.arena[s.clauseEnd(c)-1]]
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause; it returns false if the clause set became
// trivially unsatisfiable. Must be called at decision level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize in place at the end of the arena: drop duplicate and
	// false literals; detect tautologies and satisfied clauses. Clauses
	// are short, so scanning the literals kept so far beats hashing them.
	c := cref(len(s.arena))
	s.arena = append(s.arena, 0) // the header, once the size is known
next:
	for _, l := range lits {
		if l.Var() <= 0 || l.Var() >= len(s.vars) {
			s.arena = s.arena[:c]
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch s.value(l) {
		case True:
			s.arena = s.arena[:c]
			return true // already satisfied
		case False:
			continue
		}
		for _, o := range s.arena[c+1:] {
			switch o {
			case l:
				continue next
			case l.Not():
				s.arena = s.arena[:c]
				return true // tautology
			}
		}
		s.arena = append(s.arena, l)
	}
	out := s.arena[c+1:]
	switch len(out) {
	case 0:
		s.arena = s.arena[:c]
		s.ok = false
		return false
	case 1:
		s.arena = s.arena[:c]
		s.uncheckedEnqueue(out[0], 0)
		if s.propagate() != 0 {
			s.ok = false
			return false
		}
		return true
	}
	s.arena[c] = Lit(len(out) << hdrShift)
	s.numClauses++
	s.attach(c)
	return true
}

// newLearnt stores a learnt clause with its metadata and returns it.
func (s *Solver) newLearnt(lits []Lit, m clauseMeta) cref {
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)<<hdrShift|hdrLearnt))
	s.arena = append(s.arena, lits...)
	s.arena = append(s.arena, Lit(len(s.metas)))
	s.metas = append(s.metas, m)
	return c
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watch(lits[0].Not(), watcher{c, lits[1]})
	s.watch(lits[1].Not(), watcher{c, lits[0]})
}

// Watch lists start with room for watchInit watchers, cut from slabs of
// watchSlabLen.
const (
	watchInit    = 4
	watchSlabLen = 1024
)

// watch appends w to the watch list of l.
func (s *Solver) watch(l Lit, w watcher) {
	ws := s.watches[l]
	if cap(ws) == 0 {
		if len(s.watchSlab) < watchInit {
			s.watchSlab = make([]watcher, watchSlabLen)
		}
		ws = s.watchSlab[:0:watchInit]
		s.watchSlab = s.watchSlab[watchInit:]
	}
	s.watches[l] = append(ws, w)
}

func (s *Solver) uncheckedEnqueue(l Lit, reason cref) {
	s.vals[l] = True
	s.vals[l.Not()] = False
	vd := &s.vars[l.Var()]
	vd.phase = !l.Neg()
	vd.level = int32(s.decisionLevel())
	vd.reason = reason
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation; it returns the conflicting clause,
// or 0 when there is none.
func (s *Solver) propagate() cref {
	//alive:bounded — the propagation queue is the trail, at most nvars entries per call.
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == True {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if s.value(first) == True {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Find a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != False {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1].Not(), watcher{c, first})
					continue nextWatcher
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.value(first) == False {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return 0
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
// The clause lives in a solver-owned buffer that the next conflict
// overwrites.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	s.toClear = s.toClear[:0]

	//alive:bounded — first-UIP resolution consumes one trail literal per iteration.
	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			if q == p {
				continue
			}
			v := q.Var()
			if !s.vars[v].seen && s.level(v) > 0 {
				s.vars[v].seen = true
				s.toClear = append(s.toClear, v)
				s.bumpVar(v)
				if s.level(v) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		//alive:bounded — walks down the trail; a seen literal always exists above the asserting point.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.Var()].seen = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.vars[p.Var()].reason
	}
	learnt[0] = p.Not()

	// Recursive minimization: drop literals whose reason chains bottom
	// out in other clause literals or root facts (self-subsuming
	// resolution applied exhaustively to the fresh learnt).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.vars[v].reason == 0 || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	s.learntBuf = learnt

	for _, v := range s.toClear {
		s.vars[v].seen = false
	}

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level(learnt[i].Var()) > s.level(learnt[maxI].Var()) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level(learnt[1].Var())
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the seen literals: its
// reason chain, followed transitively, reaches only clause literals
// (seen) and root-level facts. Variables proven redundant along the way
// are marked seen and appended to s.toClear — memoization that makes the
// whole minimization linear in the visited reasons; on failure the
// marks added by this call are rolled back so an unprovable antecedent
// is not mistaken for a redundant one later.
func (s *Solver) litRedundant(l Lit) bool {
	top := len(s.toClear)
	stack := append(s.stack[:0], l)
	//alive:bounded — each variable is marked seen at most once, so the reason-chain walk visits each trail variable once.
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.lits(s.vars[p.Var()].reason) {
			v := q.Var()
			if v == p.Var() || s.vars[v].seen || s.level(v) == 0 {
				continue
			}
			if s.vars[v].reason == 0 {
				// A decision outside the clause: l is not redundant. Undo
				// the speculative marks from this call.
				for _, u := range s.toClear[top:] {
					s.vars[u].seen = false
				}
				s.toClear = s.toClear[:top]
				s.stack = stack
				return false
			}
			s.vars[v].seen = true
			s.toClear = append(s.toClear, v)
			stack = append(stack, q)
		}
	}
	s.stack = stack
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		s.vals[l], s.vals[l.Not()] = Unassigned, Unassigned
		v := l.Var()
		s.vars[v].reason = 0
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

func (s *Solver) bumpVar(v int) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > 1e100 {
		for i := 1; i < len(s.vars); i++ {
			s.vars[i].activity *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// computeLBD returns the literal block distance of lits under the
// current assignment: the number of distinct nonzero decision levels.
// Valid only while every literal is assigned (at the conflict, before
// backtracking).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdGen++
	n := int32(0)
	for _, l := range lits {
		lv := s.level(l.Var())
		if lv == 0 {
			continue
		}
		//alive:bounded — grows the stamp table to the current decision level.
		for lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// tierOf maps an LBD to its database tier.
func tierOf(lbd int32) int8 {
	switch {
	case lbd <= coreLBDCut:
		return tierCore
	case lbd <= tier2LBDCut:
		return tierTwo
	}
	return tierLocal
}

// setLBD records a (new or improved) LBD on a learnt clause, promoting
// its tier when the LBD crosses a cut.
func (s *Solver) setLBD(m *clauseMeta, lbd int32) {
	m.lbd = lbd
	if t := tierOf(lbd); t > m.tier {
		if t == tierCore {
			s.lbdCore++
		}
		m.tier = t
	}
}

// bumpClause marks a learnt clause as used in conflict analysis: its
// activity rises (local-tier tie-break), its LBD is recomputed under
// the current assignment and kept if improved (dynamic LBD updating on
// propagation — the clause is a reason or the conflict, so all its
// literals are assigned), and its touch stamp refreshes so tier2 aging
// sees it as live.
func (s *Solver) bumpClause(c cref) {
	if s.arena[c]&hdrLearnt == 0 {
		return
	}
	m := s.meta(c)
	m.touched = s.conflicts
	if lbd := s.computeLBD(s.lits(c)); lbd < m.lbd {
		s.setLBD(m, lbd)
	}
	m.activity += s.clauseInc
	if m.activity > 1e20 {
		for i := range s.metas {
			s.metas[i].activity *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

const (
	varDecay    = 1 / 0.95
	clauseDecay = 1 / 0.999
)

// LBD-driven restart policy (glucose-style). A restart fires when the
// mean LBD of the last lbdRingSize learnt clauses exceeds restartK
// times the mean over the whole solve — recent conflicts are producing
// clauses markedly worse than the solver's historical quality, so the
// current branch is abandoned. A restart is blocked (ring cleared)
// when the conflicting trail is blockR times larger than the running
// mean trail size: an unusually deep trail suggests an almost-complete
// model that a restart would throw away.
const (
	lbdRingSize  = 50
	restartK     = 0.8
	blockR       = 1.4
	trailEmaRate = 1.0 / 5000
)

// noteLBD feeds one learnt clause's LBD and the size of the trail at
// the conflict into the restart policy state.
func (s *Solver) noteLBD(lbd int32, trailSize int) {
	s.sumLBD += int64(lbd)
	if s.lbdRingLen == lbdRingSize {
		s.lbdRingSum -= int64(s.lbdRing[s.lbdRingPos])
	} else {
		s.lbdRingLen++
	}
	s.lbdRing[s.lbdRingPos] = lbd
	s.lbdRingSum += int64(lbd)
	s.lbdRingPos = (s.lbdRingPos + 1) % lbdRingSize
	if s.trailEma == 0 {
		s.trailEma = float64(trailSize)
	} else {
		s.trailEma += (float64(trailSize) - s.trailEma) * trailEmaRate
	}
	if s.lbdRingLen == lbdRingSize && float64(trailSize) > blockR*s.trailEma {
		s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0 // block the restart
	}
}

// ResetRestartStats clears the LBD-quality running averages that drive
// the restart policy. An incremental caller invokes it at query
// boundaries so the quality baseline describes the query being solved,
// not the session's whole history — within one query's sub-solves the
// state is left to accumulate, exactly like a fresh solver's single
// Solve call on that query.
func (s *Solver) ResetRestartStats() {
	s.sumLBD = 0
	s.solveBase = s.conflicts
	s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0
	s.trailEma = 0
}

// restartPending reports whether the LBD policy asks for a restart,
// clearing the ring so the decision is made on fresh conflicts next
// time.
func (s *Solver) restartPending() bool {
	if s.lbdRingLen < lbdRingSize || s.conflicts == s.solveBase {
		return false
	}
	if float64(s.lbdRingSum)/float64(s.lbdRingLen)*restartK <= float64(s.sumLBD)/float64(s.conflicts-s.solveBase) {
		return false
	}
	s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0
	return true
}

// pickBranchLit selects the unassigned variable with the highest activity,
// using its saved phase.
func (s *Solver) pickBranchLit() Lit {
	//alive:bounded — drains the order heap, at most nvars pops per call.
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return 0
		}
		if s.value(MkLit(v, false)) == Unassigned {
			s.decisions++
			return MkLit(v, !s.vars[v].phase)
		}
	}
}

// Database reduction schedule: the first reduction runs after
// reduceBase conflicts, and each reduction pushes the next one
// reduceBase + reduceBump×(reductions so far) conflicts out.
const (
	reduceBase = 2000
	reduceBump = 300
)

// reduceDB enforces the three-tier learned-clause policy: core clauses
// are permanent, tier2 clauses unused for tier2Stale conflicts demote
// to local, and the worst half of the local tier — highest LBD first,
// least active as the tie-break — is removed. Binary clauses and
// current reasons always survive. Once more than half the arena is dead,
// the live clauses move to a fresh one.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	s.dbReductions++
	local := s.reduceBuf[:0]
	for _, c := range s.learnts {
		m := s.meta(c)
		if m.tier == tierTwo && s.conflicts-m.touched > tier2Stale {
			m.tier = tierLocal
		}
		if m.tier == tierLocal && len(s.lits(c)) > 2 && !s.locked(c) {
			local = append(local, c)
		}
	}
	s.reduceBuf = local
	// Deterministic badness order: higher LBD first, then lower
	// activity; a stable sort keeps insertion order on full ties so
	// corpus counters stay reproducible run to run.
	slices.SortStableFunc(local, func(a, b cref) int {
		ma, mb := s.meta(a), s.meta(b)
		if ma.lbd != mb.lbd {
			return cmp.Compare(mb.lbd, ma.lbd)
		}
		return cmp.Compare(ma.activity, mb.activity)
	})
	for _, c := range local[:len(local)/2] {
		s.detach(c)
		s.arena[c] |= hdrDeleted
		s.wasted += int(s.clauseEnd(c) - c)
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.arena[c]&hdrDeleted == 0 {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// locked reports whether c is the reason for a current assignment.
// Propagation and learning put the literal a clause implies at lits[0],
// and nothing moves it while its variable stays assigned, so only that
// literal's variable can have c as its reason.
func (s *Solver) locked(c cref) bool {
	l := s.lits(c)[0]
	return s.vars[l.Var()].reason == c && s.value(l) == True
}

// compact copies the live clauses into a fresh arena, in arena order,
// and forwards every reference to them: watchers, reasons and learnts.
// No clause, literal, watch list or learnt changes order, so neither
// does the search.
func (s *Solver) compact() {
	arena := make([]Lit, 1, len(s.arena)-s.wasted)
	metas := make([]clauseMeta, 0, len(s.learnts))
	c := cref(1)
	//alive:bounded — walks the arena once, one clause per iteration.
	for int(c) < len(s.arena) {
		end := s.clauseEnd(c)
		if h := s.arena[c]; h&hdrDeleted == 0 {
			nc := len(arena)
			arena = append(arena, s.arena[c:end]...)
			if h&hdrLearnt != 0 {
				arena[len(arena)-1] = Lit(len(metas))
				metas = append(metas, *s.meta(c))
			}
			s.arena[c] = Lit(nc) // the forwarding address
		}
		c = end
	}
	old := s.arena
	s.arena, s.metas, s.wasted = arena, metas, 0
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = cref(old[ws[i].c])
		}
	}
	for _, l := range s.trail {
		if r := &s.vars[l.Var()].reason; *r != 0 {
			*r = cref(old[*r])
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = cref(old[c])
	}
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	for _, wl := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence element i (1-based).
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// It returns Sat, Unsat, or Unknown (budget exhausted). After Sat, Model
// and ValueOf are valid; after Unsat under assumptions, ConflictSubset
// returns a subset of the assumptions that is jointly unsatisfiable.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.conflictSet = nil
	if !s.ok {
		return Unsat
	}
	if s.Stop.Stopped() {
		s.emitSample()
		return Unknown
	}
	s.assumptions = assumptions
	defer s.backtrackTo(0)

	restartNum := int64(0)
	const baseInterval = 100
	startConflicts := s.conflicts
	if s.nextReduce == 0 {
		s.nextReduce = reduceBase
	}

	for {
		restartNum++
		if restartNum > 1 {
			s.restarts++
		}
		budget := luby(restartNum) * baseInterval
		st := s.search(budget)
		if st == Sat {
			// Snapshot the model before the deferred backtrack clears it.
			if cap(s.model) < len(s.vars) {
				s.model = make([]bool, len(s.vars))
			}
			s.model = s.model[:len(s.vars)]
			for v := 1; v < len(s.vars); v++ {
				s.model[v] = s.value(MkLit(v, false)) == True
			}
		}
		if st != Unknown {
			return st
		}
		// Sample here — after a search leg, before deciding whether to
		// continue — so the hook sees every restart boundary and every
		// Unknown exit (stop-flag or budget) gets a final snapshot.
		s.emitSample()
		if s.Stop.Stopped() {
			return Unknown
		}
		if s.MaxConflicts > 0 && s.conflicts-startConflicts >= s.MaxConflicts {
			return Unknown
		}
	}
}

// search runs CDCL until a result, a restart (returns Unknown after
// conflictBudget conflicts), or exhaustion.
func (s *Solver) search(conflictBudget int64) Status {
	conflictsHere := int64(0)
	for {
		if s.Stop != nil && s.propagations >= s.nextStopPoll {
			s.nextStopPoll = s.propagations + stopPollInterval
			faultinject.Fire(faultinject.SitePropagate, s.Stop)
			if s.Stop.Stopped() {
				s.backtrackTo(0)
				return Unknown
			}
		}
		confl := s.propagate()
		if confl != 0 {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.learned++
			// LBD must be read before backtracking unassigns the
			// asserting literal's variable.
			lbd := s.computeLBD(learnt)
			s.noteLBD(lbd, len(s.trail))
			s.backtrackTo(btLevel)
			if len(learnt) == 1 && btLevel == 0 {
				s.uncheckedEnqueue(learnt[0], 0)
			} else {
				c := s.newLearnt(learnt, clauseMeta{touched: s.conflicts, lbd: lbd + 1})
				s.setLBD(s.meta(c), lbd)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				if s.value(learnt[0]) == Unassigned {
					s.uncheckedEnqueue(learnt[0], c)
				}
			}
			s.varInc *= varDecay
			s.clauseInc *= clauseDecay
			continue
		}
		if conflictsHere >= conflictBudget || s.restartPending() {
			s.backtrackTo(0)
			return Unknown
		}
		if s.conflicts >= s.nextReduce {
			s.reduceDB()
			s.nextReduce = s.conflicts + reduceBase + reduceBump*s.dbReductions
		}
		// Enqueue pending assumptions as decisions.
		if s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case True:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case False:
				s.buildConflictFromAssumption(a)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, 0)
				continue
			}
		}
		faultinject.Fire(faultinject.SiteDecide, s.Stop)
		if s.Stop.Stopped() {
			s.backtrackTo(0)
			return Unknown
		}
		l := s.pickBranchLit()
		if l == 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, 0)
	}
}

// buildConflictFromAssumption computes the subset of assumptions
// responsible for the assumption a being falsified: a plus the
// assumption decisions reachable through the reason graph of ~a.
// The walk is depth-first in reason order over the literals that hold,
// so the set lists assumptions in the order the walk first reaches them.
func (s *Solver) buildConflictFromAssumption(a Lit) {
	s.conflictSet = []Lit{a}
	s.toClear = s.toClear[:0]
	stack := append(s.stack[:0], a.Not())
	//alive:bounded — each variable is marked seen at most once, so the walk pushes each reason once.
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := l.Var()
		if s.vars[v].seen || s.level(v) == 0 {
			continue
		}
		s.vars[v].seen = true
		s.toClear = append(s.toClear, v)
		r := s.vars[v].reason
		if r == 0 {
			// A decision below the assumption prefix is an assumption.
			s.conflictSet = append(s.conflictSet, l)
			continue
		}
		// Push in reverse so the first literal is walked first. The
		// reason's other literals are false; their complements hold.
		lits := s.lits(r)
		for i := len(lits) - 1; i >= 0; i-- {
			if q := lits[i]; q.Var() != v {
				stack = append(stack, q.Not())
			}
		}
	}
	s.stack = stack
	for _, v := range s.toClear {
		s.vars[v].seen = false
	}
}

// ConflictSubset returns, after an Unsat result under assumptions, a
// subset of the assumptions that is jointly unsatisfiable with the
// clauses (empty when the clause set itself is unsat).
func (s *Solver) ConflictSubset() []Lit { return s.conflictSet }

// ProbeUnder runs failed-literal probing under an assumption context:
// the context literals are pushed as decisions and propagated, then
// every still-unassigned variable numbered from or higher is probed in
// both phases (from <= 1 probes them all). A probe
// whose propagation conflicts proves its literal implied-false under
// the context, so the caller may add the guarded clause
// (¬ctx ∨ ¬lit) and have it propagate at assumption level in later
// solves — the incremental analogue of the failed-literal pass a fresh
// preprocessor runs with the query root asserted as a unit. feasible
// is false when propagation alone refutes the context (the caller may
// then add ¬ctx outright). The trail is fully restored; no clauses are
// learned and the conflict counter is untouched, so probing trades
// propagation effort for search conflicts, never the reverse. A
// session that already probed its older variables passes the first
// variable added since as from, so a warm query pays for what it adds.
func (s *Solver) ProbeUnder(ctx []Lit, from int) (failed []Lit, feasible bool) {
	if !s.ok {
		return nil, false
	}
	// Probing assigns most of the variable space both ways, which would
	// trash the saved phases that make consecutive warm solves cheap;
	// snapshot and restore them so probing is invisible to the
	// branching heuristic. Registered before the backtrack defer so it
	// runs after the trail is unwound.
	s.phaseBuf = s.phaseBuf[:0]
	for i := range s.vars {
		s.phaseBuf = append(s.phaseBuf, s.vars[i].phase)
	}
	defer func() {
		for i := range s.vars {
			s.vars[i].phase = s.phaseBuf[i]
		}
	}()
	defer s.backtrackTo(0)
	for _, a := range ctx {
		switch s.value(a) {
		case True:
			continue
		case False:
			return nil, false
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(a, 0)
		if s.propagate() != 0 {
			return nil, false
		}
	}
	ctxLevel := s.decisionLevel()
	probes := 0
	for pass := 0; pass < 4; pass++ {
		progress := false
		for v := max(from, 1); v < len(s.vars); v++ {
			if s.value(MkLit(v, false)) != Unassigned {
				continue
			}
			// The pass count bounds the fixpoint, but every probe runs
			// full propagation over the clause set, so on big encodings a
			// deadline can strike mid-pass. The failed literals found so
			// far are each individually implied, so stopping early keeps
			// the result sound.
			if probes++; probes&63 == 0 && s.Stop.Stopped() {
				return failed, true
			}
			// Literals the first (negative) phase probe implied, kept for
			// lifting: anything the second phase also implies holds under
			// the context regardless of v.
			first := s.probeBuf[:0]
			for pi, l := range [2]Lit{MkLit(v, false), MkLit(v, true)} {
				// An earlier failed literal's propagation may have assigned
				// this variable at the context level in the meantime.
				if s.value(l) != Unassigned {
					break
				}
				base := len(s.trail)
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(l, 0)
				confl := s.propagate()
				var lifted []Lit
				if confl == 0 {
					if pi == 0 {
						first = append(first, s.trail[base+1:]...)
						s.probeBuf = first
					} else {
						// The second phase is the last use of first, so
						// the lifted literals overwrite it in place.
						lifted = first[:0]
						for _, u := range first {
							if s.value(u) == True {
								lifted = append(lifted, u)
							}
						}
					}
				}
				s.backtrackTo(ctxLevel)
				if confl != 0 {
					failed = append(failed, l)
					progress = true
					// Assert the implication at the context level so later
					// probes (and their propagations) build on it.
					s.uncheckedEnqueue(l.Not(), 0)
					if s.propagate() != 0 {
						return failed, false
					}
					continue
				}
				// A lifted literal u is implied by both v and ¬v, so it is
				// implied by the context alone; report it as the failed
				// literal ¬u and assert it like one.
				for _, u := range lifted {
					if s.value(u) != Unassigned {
						continue
					}
					failed = append(failed, u.Not())
					progress = true
					s.uncheckedEnqueue(u, 0)
					if s.propagate() != 0 {
						return failed, false
					}
				}
			}
		}
		// Each failed literal strengthens the context, so earlier
		// variables may fail on a re-probe; iterate to a bounded
		// fixpoint.
		if !progress {
			break
		}
	}
	return failed, true
}

// ValueOf returns the model value of variable v from the most recent Sat
// result.
func (s *Solver) ValueOf(v int) bool { return v < len(s.model) && s.model[v] }

// Model returns the most recent satisfying assignment as a slice indexed
// by variable (index 0 unused).
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	copy(m, s.model)
	return m
}
