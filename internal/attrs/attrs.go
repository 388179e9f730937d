// Package attrs implements Alive's optimal attribute inference
// (Section 3.4, Figure 6): synthesizing the weakest precondition over the
// nsw/nuw/exact attributes of source instructions and the strongest
// postcondition over target instructions.
//
// Where the paper enumerates models of a quantified SMT formula with one
// Boolean per (instruction, attribute) slot, we enumerate attribute
// assignments directly and discharge each candidate with the refinement
// checker, exploiting the same partial order for pruning: if a
// transformation is correct for (S, T) it is correct for any S' ⊇ S
// (more source poison weakens the premise) and T' ⊆ T (less target
// poison weakens the obligation). The outcome is identical — the set of
// all feasible attribute assignments intersected over type assignments —
// because both procedures decide the same finite set of conditions. The
// candidates differ only in flags, so one verify.Checker answers them
// all: each type assignment keeps one solver session across candidates,
// and a candidate pays only for the terms its flags change, much as the
// paper's single formula shares everything but the slot Booleans.
package attrs

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"alive/internal/ir"
	"alive/internal/verify"
)

// Side distinguishes source from target slots.
type Side int

// Slot sides.
const (
	SrcSide Side = iota
	TgtSide
)

// Slot is one inferable attribute position: a flag on a flag-capable
// binary operator in one of the templates.
type Slot struct {
	Side  Side
	Index int // instruction index within its template
	Name  string
	Flag  ir.Flags
}

func (s Slot) String() string {
	side := "src"
	if s.Side == TgtSide {
		side = "tgt"
	}
	return fmt.Sprintf("%s %s %s", side, s.Name, s.Flag)
}

// Assignment is a choice of on/off per slot.
type Assignment []bool

// Result reports the inference outcome.
type Result struct {
	Transform *ir.Transform
	Slots     []Slot

	// Original is the attribute assignment as written.
	Original Assignment
	// Best is the preferred feasible assignment: minimal source
	// attributes, then maximal target attributes.
	Best Assignment
	// Feasible lists every correct assignment found (after pruning, all
	// 2^k candidates have a decided status).
	Feasible []Assignment

	// SourceWeakened reports that some source attribute present in the
	// original can be dropped (the precondition got weaker).
	SourceWeakened bool
	// TargetStrengthened reports that some target attribute absent in
	// the original can be added (the postcondition got stronger).
	TargetStrengthened bool

	// Checks counts refinement-checker invocations (pruned candidates
	// excluded).
	Checks int

	// Undecided lists the candidates whose correctness is not known: the
	// checker gave up on them (an Unknown verdict, such as a conflict
	// budget or a deadline), or the context ended before they were
	// checked. Pruning never draws on them, so Feasible and Best hold
	// only proven assignments, but Best may miss an undecided better one.
	Undecided []Assignment
}

// Render returns the transformation text with the given assignment
// applied.
func (r *Result) Render(a Assignment) string {
	saved := r.apply(a)
	s := r.Transform.String()
	r.restore(saved)
	return s
}

func (r *Result) apply(a Assignment) []ir.Flags {
	saved := make([]ir.Flags, len(r.Slots))
	for i, slot := range r.Slots {
		in := r.instrAt(slot)
		saved[i] = in.Flags
	}
	// Clear inferable flags, then set per assignment.
	for _, slot := range r.Slots {
		in := r.instrAt(slot)
		in.Flags &^= slot.Flag
	}
	for i, slot := range r.Slots {
		if a[i] {
			in := r.instrAt(slot)
			in.Flags |= slot.Flag
		}
	}
	return saved
}

func (r *Result) restore(saved []ir.Flags) {
	for i, slot := range r.Slots {
		in := r.instrAt(slot)
		in.Flags = saved[i]
	}
}

func (r *Result) instrAt(s Slot) *ir.BinOp {
	var list []ir.Instr
	if s.Side == SrcSide {
		list = r.Transform.Source
	} else {
		list = r.Transform.Target
	}
	return list[s.Index].(*ir.BinOp)
}

// slots discovers the inferable attribute positions of a transformation.
func slots(t *ir.Transform) []Slot {
	var out []Slot
	add := func(side Side, idx int, in ir.Instr) {
		bo, ok := in.(*ir.BinOp)
		if !ok {
			return
		}
		valid := ir.ValidFlags(bo.Op)
		for _, f := range []ir.Flags{ir.NSW, ir.NUW, ir.Exact} {
			if valid&f != 0 {
				out = append(out, Slot{Side: side, Index: idx, Name: bo.VName, Flag: f})
			}
		}
	}
	for i, in := range t.Source {
		add(SrcSide, i, in)
	}
	for i, in := range t.Target {
		add(TgtSide, i, in)
	}
	return out
}

// Candidate statuses in Infer's decision cache.
const (
	unchecked = iota
	correct
	incorrect
	// gaveUp: the checker returned Unknown, or the context ended first.
	gaveUp
)

// Infer runs attribute inference. The transformation must be correct as
// written; inference then explores the attribute lattice. MaxSlots bounds
// the exhaustive enumeration (beyond it, a greedy pass is used). It is
// InferContext with a background context.
func Infer(t *ir.Transform, opts verify.Options) (*Result, error) {
	return InferContext(context.Background(), t, opts)
}

// InferContext runs attribute inference under ctx. Each check runs
// under ctx, and once ctx is done no further check starts: the
// candidates left are reported in Result.Undecided, as are those the
// checker gave up on. An original form the checker could not decide is
// an error, as is an incorrect one.
func InferContext(ctx context.Context, t *ir.Transform, opts verify.Options) (*Result, error) {
	const maxExhaustiveSlots = 10

	r := &Result{Transform: t, Slots: slots(t)}
	k := len(r.Slots)
	r.Original = make(Assignment, k)
	for i, s := range r.Slots {
		r.Original[i] = r.instrAt(s).Flags&s.Flag != 0
	}
	if k == 0 {
		r.Best = r.Original
		return r, nil
	}

	// Decision cache over bitmask candidates with partial-order pruning.
	status := map[uint32]int{}
	c := verify.NewChecker(t, opts)
	// why is the reason the last check that gave up gave.
	why := ""
	check := func(mask uint32) bool {
		if st := status[mask]; st != unchecked {
			return st == correct
		}
		// Pruning by monotonicity against decided masks.
		for m, st := range status {
			if st == correct && r.implies(m, mask) {
				status[mask] = correct
				return true
			}
			if st == incorrect && r.implies(mask, m) {
				status[mask] = incorrect
				return false
			}
		}
		if err := ctx.Err(); err != nil {
			status[mask] = gaveUp
			why = err.Error()
			return false
		}
		a := r.maskToAssignment(mask)
		saved := r.apply(a)
		res := c.Check(ctx)
		r.restore(saved)
		r.Checks++
		switch res.Verdict {
		case verify.Valid:
			status[mask] = correct
			return true
		case verify.Unknown:
			status[mask] = gaveUp
			why = res.Reason.String()
			return false
		}
		status[mask] = incorrect
		return false
	}

	origMask := r.assignmentToMask(r.Original)
	if !check(origMask) {
		if status[origMask] == gaveUp {
			return nil, fmt.Errorf("%s: could not decide whether the transformation is correct as written (%s)", t.Name, why)
		}
		return nil, fmt.Errorf("%s: transformation is not correct as written; fix it before inferring attributes", t.Name)
	}

	if k <= maxExhaustiveSlots {
		for mask := uint32(0); mask < 1<<uint(k); mask++ {
			if check(mask) {
				r.Feasible = append(r.Feasible, r.maskToAssignment(mask))
			}
		}
	} else {
		// Greedy: drop source attributes, then add target attributes.
		cur := origMask
		for i, s := range r.Slots {
			bit := uint32(1) << uint(i)
			if s.Side == SrcSide && cur&bit != 0 && check(cur&^bit) {
				cur &^= bit
			}
		}
		for i, s := range r.Slots {
			bit := uint32(1) << uint(i)
			if s.Side == TgtSide && cur&bit == 0 && check(cur|bit) {
				cur |= bit
			}
		}
		r.Feasible = append(r.Feasible, r.maskToAssignment(cur))
	}

	var undecided []uint32
	for mask, st := range status {
		if st == gaveUp {
			undecided = append(undecided, mask)
		}
	}
	slices.Sort(undecided)
	for _, mask := range undecided {
		r.Undecided = append(r.Undecided, r.maskToAssignment(mask))
	}
	r.Best = r.selectBest()
	r.classify()
	return r, nil
}

// implies reports that correctness of assignment a implies correctness of
// assignment b under the attribute partial order: b has a superset of a's
// source attributes and a subset of its target attributes.
func (r *Result) implies(a, b uint32) bool {
	for i, s := range r.Slots {
		bit := uint32(1) << uint(i)
		av, bv := a&bit != 0, b&bit != 0
		if s.Side == SrcSide {
			if av && !bv {
				return false
			}
		} else {
			if bv && !av {
				return false
			}
		}
	}
	return true
}

func (r *Result) maskToAssignment(mask uint32) Assignment {
	a := make(Assignment, len(r.Slots))
	for i := range a {
		a[i] = mask&(1<<uint(i)) != 0
	}
	return a
}

func (r *Result) assignmentToMask(a Assignment) uint32 {
	var m uint32
	for i, v := range a {
		if v {
			m |= 1 << uint(i)
		}
	}
	return m
}

// selectBest picks the preferred assignment following the paper's two
// goals: with the source attributes as written, maximize the target
// attributes (strongest postcondition); with the target as written,
// minimize the source attributes (weakest precondition); and combine the
// two when the combination is itself feasible.
func (r *Result) selectBest() Assignment {
	if len(r.Feasible) == 0 {
		return r.Original
	}
	feasible := map[uint32]bool{}
	for _, a := range r.Feasible {
		feasible[r.assignmentToMask(a)] = true
	}
	count := func(a Assignment, side Side) int {
		n := 0
		for i, v := range a {
			if v && r.Slots[i].Side == side {
				n++
			}
		}
		return n
	}
	sideEq := func(a, b Assignment, side Side) bool {
		for i, s := range r.Slots {
			if s.Side == side && a[i] != b[i] {
				return false
			}
		}
		return true
	}

	// Strongest postcondition: source fixed, most target attributes.
	bestT := r.Original
	for _, a := range r.Feasible {
		if sideEq(a, r.Original, SrcSide) && count(a, TgtSide) > count(bestT, TgtSide) {
			bestT = a
		}
	}
	// Weakest precondition: target fixed, fewest source attributes.
	bestS := r.Original
	for _, a := range r.Feasible {
		if sideEq(a, r.Original, TgtSide) && count(a, SrcSide) < count(bestS, SrcSide) {
			bestS = a
		}
	}
	// Combine when feasible.
	combo := make(Assignment, len(r.Slots))
	for i, s := range r.Slots {
		if s.Side == SrcSide {
			combo[i] = bestS[i]
		} else {
			combo[i] = bestT[i]
		}
	}
	if feasible[r.assignmentToMask(combo)] {
		return combo
	}
	return bestT
}

func (r *Result) classify() {
	for i, s := range r.Slots {
		if s.Side == SrcSide && r.Original[i] {
			// Can this source attribute be dropped while keeping the
			// original target attributes (or better)?
			for _, a := range r.Feasible {
				if !a[i] && tgtAtLeast(r, a, r.Original) {
					r.SourceWeakened = true
				}
			}
		}
		if s.Side == TgtSide && !r.Original[i] {
			for _, a := range r.Feasible {
				if a[i] && srcAtMost(r, a, r.Original) {
					r.TargetStrengthened = true
				}
			}
		}
	}
}

// tgtAtLeast reports a's target attributes include all of b's.
func tgtAtLeast(r *Result, a, b Assignment) bool {
	for i, s := range r.Slots {
		if s.Side == TgtSide && b[i] && !a[i] {
			return false
		}
	}
	return true
}

// srcAtMost reports a's source attributes are a subset of b's.
func srcAtMost(r *Result, a, b Assignment) bool {
	for i, s := range r.Slots {
		if s.Side == SrcSide && a[i] && !b[i] {
			return false
		}
	}
	return true
}

// Describe renders a human-readable inference summary.
func (r *Result) Describe() string {
	var sb strings.Builder
	if len(r.Slots) == 0 {
		sb.WriteString("no inferable attribute positions\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d attribute slots, %d feasible assignments (%d checks)\n",
		len(r.Slots), len(r.Feasible), r.Checks)
	if n := len(r.Undecided); n > 0 {
		fmt.Fprintf(&sb, "%d assignments undecided (the checker gave up or the run ended), so these attributes may not be optimal\n", n)
	}
	var changes []string
	for i, s := range r.Slots {
		switch {
		case r.Original[i] && !r.Best[i]:
			changes = append(changes, fmt.Sprintf("drop %s", s))
		case !r.Original[i] && r.Best[i]:
			changes = append(changes, fmt.Sprintf("add %s", s))
		}
	}
	sort.Strings(changes)
	switch {
	case len(changes) > 0:
		for _, c := range changes {
			sb.WriteString(c)
			sb.WriteByte('\n')
		}
	case len(r.Undecided) > 0:
		sb.WriteString("no better attributes proven\n")
	default:
		sb.WriteString("attributes are already optimal\n")
	}
	return sb.String()
}
