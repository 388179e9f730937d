// Package verify implements Alive's refinement checker (Sections 3.1.2
// and 3.3.2): for every feasible type assignment it discharges the
// correctness conditions
//
//  1. the target is defined when the source is defined,
//  2. the target is poison-free when the source is poison-free,
//  3. source and target produce equal values when the source is defined
//     and poison-free, and
//  4. (with memory) the final memories agree at every address,
//
// each universally quantified over inputs, analysis Booleans, and target
// undef variables, and existentially over source undef variables. The
// negated conditions are ∃∀ queries dispatched to the solver's
// counterexample-guided instantiation engine; failures are rendered as
// Figure 5-style counterexamples.
package verify

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"alive/internal/bv"
	"alive/internal/faultinject"
	"alive/internal/ir"
	"alive/internal/lint"
	"alive/internal/metrics"
	"alive/internal/sat"
	"alive/internal/smt"
	"alive/internal/solver"
	"alive/internal/telemetry"
	"alive/internal/typing"
	"alive/internal/vcgen"
)

// Verdict classifies the outcome of verifying one transformation.
type Verdict int

// Verification outcomes.
const (
	Valid    Verdict = iota // proved correct for all checked type assignments
	Invalid                 // counterexample found
	Unknown                 // budget exhausted or encoding unsupported
	Rejected                // lint found errors; no proof was attempted
)

func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Rejected:
		return "rejected"
	}
	return "unknown"
}

// CexKind says which correctness condition failed.
type CexKind int

// Counterexample kinds, one per correctness condition.
const (
	CexValueMismatch CexKind = iota
	CexMoreUndefined
	CexMorePoison
	CexMemoryMismatch
)

// NamedValue is one line of a counterexample listing.
type NamedValue struct {
	Name  string
	Width int
	Val   bv.Vec
}

// Counterexample is a concrete witness that a transformation is wrong.
type Counterexample struct {
	Kind     CexKind
	RootName string
	Width    int // width of the root value
	TypeStr  string

	Inputs        []NamedValue
	Intermediates []NamedValue
	SrcValue      bv.Vec
	TgtValue      bv.Vec
	HasValues     bool
}

// String renders the counterexample in the style of Figure 5.
func (c *Counterexample) String() string {
	var sb strings.Builder
	switch c.Kind {
	case CexValueMismatch:
		fmt.Fprintf(&sb, "ERROR: Mismatch in values of i%d %s\n", c.Width, c.RootName)
	case CexMoreUndefined:
		fmt.Fprintf(&sb, "ERROR: Domain of definedness of Target is smaller than Source's for i%d %s\n", c.Width, c.RootName)
	case CexMorePoison:
		fmt.Fprintf(&sb, "ERROR: Target creates poison where Source does not for i%d %s\n", c.Width, c.RootName)
	case CexMemoryMismatch:
		fmt.Fprintf(&sb, "ERROR: Mismatch in final memory states\n")
	}
	sb.WriteString("\nExample:\n")
	for _, nv := range c.Inputs {
		fmt.Fprintf(&sb, "%s i%d = %s\n", nv.Name, nv.Width, nv.Val.DecimalString())
	}
	for _, nv := range c.Intermediates {
		fmt.Fprintf(&sb, "%s i%d = %s\n", nv.Name, nv.Width, nv.Val.DecimalString())
	}
	if c.HasValues {
		fmt.Fprintf(&sb, "Source value: %s\n", c.SrcValue.DecimalString())
		fmt.Fprintf(&sb, "Target value: %s\n", c.TgtValue.DecimalString())
	}
	return sb.String()
}

// Options configures verification.
type Options struct {
	// Widths is the candidate integer width set (default
	// {1, 4, 8, 16, 32, 64}).
	Widths []int
	// DivMulMaxWidth caps widths for transformations containing
	// multiplication, division, or remainder, whose decision problems are
	// the hard cases (the paper works around slow verification the same
	// way); default 8, 0 disables the cap.
	DivMulMaxWidth int
	// PtrWidth is the ABI pointer width (default 32).
	PtrWidth int
	// MaxAssignments caps enumerated type assignments (default 16).
	MaxAssignments int
	// MaxConflicts bounds each SAT search; <= 0 means unbounded. Under a
	// deadline (Timeout or a context deadline) it is instead the starting
	// rung of the escalation ladder: Unknown verdicts are retried with
	// geometrically growing budgets while wall-clock time remains.
	MaxConflicts int64
	// Timeout bounds wall-clock time for the whole verification; 0 means
	// no deadline. VerifyContext combines it with the context's deadline,
	// whichever is sooner.
	Timeout time.Duration
	// DisableSimplify turns off constructor-time term simplification
	// (ablation).
	DisableSimplify bool
	// Lint runs the solver-free static analyzer first and rejects the
	// transformation without attempting a proof when it reports
	// error-severity findings; all findings land in Result.Lint.
	Lint bool
	// DisablePresolve turns off the ring presolve in the solver layer
	// (the -presolve=off escape hatch): every query bit-blasts
	// directly.
	DisablePresolve bool
	// DisablePreprocess turns off the CNF preprocessor in the solver
	// layer (the -preprocess=off escape hatch): bit-blasted clauses go
	// straight to CDCL search without static simplification.
	DisablePreprocess bool
	// Trace, when non-nil, records hierarchical spans for every pipeline
	// phase (lint, typing, vcgen, presolve, bitblast, CDCL, CEGIS) into
	// the tracer; export with Tracer.WriteChromeTrace. Nil (the default)
	// keeps the pipeline span-free at nil-receiver cost — counters in
	// Result.Counters are populated either way.
	Trace *telemetry.Tracer
	// Track is the tracer track (one Perfetto row) spans land on;
	// RunCorpus assigns one per worker. Nil with Trace set allocates a
	// fresh track per verification.
	Track *telemetry.Track
	// MaxHeapBytes is a soft live-heap budget (0 = unlimited). RunCorpus
	// samples the heap and, when the live set stays over budget even
	// after a forced GC, cooperatively aborts the heaviest in-flight
	// verification with Unknown (out-of-memory) instead of letting the
	// process be OOM-killed. Single Verify/VerifyContext calls ignore it.
	MaxHeapBytes uint64
	// Flight, when non-nil, arms the flight recorder: a verification
	// that ends Unknown (any reason — deadline, conflict budget,
	// memory-governor trip, panic) or outlasts Flight.Slow serializes
	// its last ring-buffered solver samples, span path, and counter
	// deltas to an NDJSON artifact in Flight.Dir for offline diagnosis.
	Flight *metrics.FlightRecorder

	// onStart, when non-nil, is called at the start of each verification
	// with its stop flag; the returned function (may be nil) runs when
	// the verification finishes. RunCorpus uses this same-package seam to
	// register in-flight verifications with the memory governor.
	onStart func(t *ir.Transform, flag *sat.StopFlag) func()
	// live, when non-nil, receives the solver samples of every SAT core
	// this verification runs, for the /metrics solver gauges. RunCorpus
	// sets it to CorpusOptions.Live; nil keeps the pipeline sampler-free
	// at one pointer test per restart.
	live *Live
}

// Result is the outcome of Verify.
type Result struct {
	Transform *ir.Transform
	Verdict   Verdict
	Cex       *Counterexample
	// TypeAssignments is the number of feasible type assignments checked.
	TypeAssignments int
	// Queries counts solver queries issued.
	Queries int
	// Err carries encoding/typing failures (Verdict == Unknown).
	Err      error
	Duration time.Duration
	// Lint holds the static analyzer's findings when Options.Lint is set;
	// error severity implies Verdict == Rejected.
	Lint []lint.Diagnostic

	// Reason classifies an Unknown verdict (ReasonNone otherwise).
	Reason UnknownReason
	// GaveUpAssignment is the index of the type assignment under check
	// when the verifier gave up; -1 when it never got that far (typing
	// failure, pre-typing cancellation) or did not give up.
	GaveUpAssignment int
	// GaveUpCondition names the correctness condition ("defined",
	// "poison", "value", "memory") being discharged when the verifier
	// gave up; empty when it gave up between conditions or not at all.
	GaveUpCondition string
	// PanicStack is the recovered stack trace when Reason == ReasonPanic.
	PanicStack string
	// Escalations counts conflict-budget ladder retries across all type
	// assignments.
	Escalations int
	// Resumed is set when RunCorpus restored this verdict from a resume
	// journal instead of re-verifying the transformation.
	Resumed bool

	// Counters aggregates the telemetry counters — SAT-core work
	// (propagations, conflicts, decisions, restarts, learned clauses),
	// presolver outcomes, CNF sizes, CEGIS rounds — across every solver
	// query of this verification. Populated whether or not a tracer is
	// attached, so `alive -v` can print per-transform solver work with
	// telemetry off.
	Counters telemetry.Counters
}

const defaultDivMulMaxWidth = 8

func (o Options) withDefaults() Options {
	if len(o.Widths) == 0 {
		o.Widths = []int{1, 4, 8, 16, 32, 64}
	}
	if o.DivMulMaxWidth == 0 {
		o.DivMulMaxWidth = defaultDivMulMaxWidth
	}
	if o.PtrWidth == 0 {
		o.PtrWidth = 32
	}
	if o.MaxAssignments == 0 {
		o.MaxAssignments = 16
	}
	return o
}

// hasHardArith reports whether the transformation contains multiply,
// divide, or remainder operations (in templates or constant
// expressions).
func hasHardArith(t *ir.Transform) bool {
	hard := false
	scan := func(v ir.Value) {
		ir.WalkValues(v, func(u ir.Value) {
			switch n := u.(type) {
			case *ir.BinOp:
				switch n.Op {
				case ir.Mul, ir.UDiv, ir.SDiv, ir.URem, ir.SRem:
					hard = true
				}
			case *ir.ConstBinExpr:
				switch n.Op {
				case ir.CMul, ir.CSDiv, ir.CUDiv, ir.CSRem, ir.CURem:
					hard = true
				}
			}
		})
	}
	for _, in := range t.Source {
		scan(in)
	}
	for _, in := range t.Target {
		scan(in)
	}
	return hard
}

// Verify checks a transformation for every feasible type assignment and
// returns the verdict with a counterexample on failure. It is
// VerifyContext with a background context; Options.Timeout still
// applies.
func Verify(t *ir.Transform, opts Options) Result {
	return VerifyContext(context.Background(), t, opts)
}

// testHookAfterTyping, when non-nil, runs after type inference succeeds
// — a fault-injection seam for exercising panic isolation in tests.
var testHookAfterTyping func(*ir.Transform)

// testHookSolver, when non-nil, runs on each freshly built per-assignment
// solver — a seam for tests to tighten budgets (e.g. CEGIS MaxRounds)
// that Options does not expose.
var testHookSolver func(*solver.Solver)

// escalationStart is the first rung of the conflict-budget ladder when a
// deadline is present but MaxConflicts is unbounded.
const escalationStart = 1 << 14

// VerifyContext checks a transformation under a context: cancellation
// and the sooner of the context's deadline and Options.Timeout
// propagate to every SAT search through a shared stop flag, so the call
// returns promptly (verdict Unknown, with Reason saying why) instead of
// running an unbounded search. Any panic in the solving stack is
// contained to this transformation and reported as
// Unknown{internal-panic} with the stack attached. It is a one-shot
// Checker: each type assignment's session is garbage once that
// assignment is done.
func VerifyContext(ctx context.Context, t *ir.Transform, opts Options) Result {
	c := Checker{t: t, opts: opts.withDefaults()}
	return c.Check(ctx)
}

// Checker verifies one transformation again and again while only its
// attribute flags change, as attribute inference does for each
// candidate. It keeps one smt.Builder and one solver session per type
// assignment across Check calls. vcgen interns variables by name and
// restarts its fresh names on every encoding, so every term a flag does
// not touch is the same hash-consed pointer on every call, and the
// session's bit-blaster reuses its encoding. Reuse is sound because a
// session's base holds only Tseitin definitions and every query is an
// assumption (internal/solver/session.go): whatever the core learned
// holds for any later query on the same builder. A Checker is not safe
// for concurrent use.
type Checker struct {
	t    *ir.Transform
	opts Options
	// state holds each type assignment's session, keyed by its index in
	// typing.Infer's sorted output; nil in a one-shot check, which keeps
	// nothing. The index identifies the assignment completely: typing is
	// deterministic and reads no flags, so every Check enumerates the
	// same assignments in the same order. (The assignment's String
	// renders only named values, so two assignments that differ in the
	// width of an undef or a literal would share it.) An assignment
	// whose check ends Unknown drops its entry, and a recovered panic
	// drops them all.
	state map[int]*assignmentState
	// typed holds typing's sorted output once a kept Checker has run it:
	// typing reads no flags, so every later Check reuses it. A recovered
	// panic drops it with the sessions.
	typed *typed
}

// typed is the outcome of typing one transformation: its assignments in
// preference order, or the error that stopped typing.
type typed struct {
	asgs []*typing.Assignment
	err  error
}

// assignmentState is the builder and solver session of one type
// assignment.
type assignmentState struct {
	b   *smt.Builder
	sol solver.Solver
}

// NewChecker returns a Checker for t. Each Check verifies t as its
// flags stand at the time of the call.
func NewChecker(t *ir.Transform, opts Options) *Checker {
	return &Checker{t: t, opts: opts.withDefaults(), state: map[int]*assignmentState{}}
}

// session returns the state kept for the type assignment at index, or a
// new one, which is kept unless the check is one-shot.
func (c *Checker) session(index int) *assignmentState {
	if st := c.state[index]; st != nil {
		return st
	}
	st := &assignmentState{
		b: smt.NewBuilder(),
		sol: solver.Solver{
			DisablePresolve:   c.opts.DisablePresolve,
			DisablePreprocess: c.opts.DisablePreprocess,
		},
	}
	st.b.Simplify = !c.opts.DisableSimplify
	if testHookSolver != nil {
		testHookSolver(&st.sol)
	}
	if c.state != nil {
		c.state[index] = st
	}
	return st
}

// Check verifies the transformation as VerifyContext does. Result's
// counters are this call's own work.
func (c *Checker) Check(ctx context.Context) (res Result) {
	start := time.Now()
	t, opts := c.t, c.opts
	res = Result{Transform: t, Verdict: Valid, GaveUpAssignment: -1}
	span := startTransformSpan(opts, t)
	// rec is non-nil when an observability sink wants solver samples: it
	// carries the SAT cores' restart-boundary snapshots into the Live
	// record and the flight ring.
	var rec *queryRecorder
	if opts.live != nil || opts.Flight != nil {
		rec = newQueryRecorder(opts, start)
	}
	// Deferred LIFO: the span finalizer registered first runs last, after
	// the flight recorder, the duration stamp, and the panic handler, so
	// it annotates the final verdict (including a recovered panic); the
	// flight recorder runs with the duration already stamped.
	defer finishTransformSpan(span, &res)
	if opts.Flight != nil {
		defer recordFlight(opts.Flight, t.Name, &res, rec)
	}
	defer func() { res.Duration = time.Since(start) }()
	defer func() {
		if r := recover(); r != nil {
			// The panic may have left any session half-updated.
			clear(c.state)
			c.typed = nil
			res.Verdict = Unknown
			res.Cex = nil
			res.setPanic("internal", r)
		}
	}()

	g, release := newGovernor(ctx, opts.Timeout)
	defer release()
	if opts.onStart != nil {
		if done := opts.onStart(t, &g.flag); done != nil {
			defer done()
		}
	}

	if opts.Lint {
		lspan := span.Child("lint", "lint")
		res.Lint = lint.Transform(t)
		lspan.SetInt("diagnostics", int64(len(res.Lint)))
		lspan.End()
		if lint.HasErrors(res.Lint) {
			res.Verdict = Rejected
			return res
		}
	}

	ty := c.typed
	if ty == nil {
		ty = c.typing(span)
		if c.state != nil {
			c.typed = ty
		}
	}
	if ty.err != nil {
		res.Verdict = Unknown
		res.Reason = ReasonEncoding
		res.Err = ty.err
		return res
	}
	if testHookAfterTyping != nil {
		testHookAfterTyping(t)
	}
	asgs := ty.asgs
	res.TypeAssignments = len(asgs)

	for i, asg := range asgs {
		if g.stopped() {
			res.Verdict = Unknown
			res.Reason = g.reason()
			res.GaveUpAssignment = i
			return res
		}
		v, cex, queries, escalations, detail := c.verifyAssignment(asg, g, &res, span, i, rec)
		res.Queries += queries
		res.Escalations += escalations
		switch v {
		case Invalid:
			res.Verdict = Invalid
			res.Cex = cex
			return res
		case Unknown:
			res.Verdict = Unknown
			res.Reason = detail.reason
			res.GaveUpAssignment = i
			res.GaveUpCondition = detail.condition
			res.Err = detail.err
			return res
		}
	}
	return res
}

// setPanic records a panic recovered while verifying, named where in its
// error text. An injected fault is part of the chaos contract, not a
// pipeline bug: it is classified precisely and carries no stack.
func (res *Result) setPanic(where string, r any) {
	if inj, ok := faultinject.AsInjected(r); ok {
		res.Reason = ReasonInjected
		if inj.OOM {
			res.Reason = ReasonOOM
		}
		res.Err = fmt.Errorf("%s", inj)
		return
	}
	res.Reason = ReasonPanic
	res.Err = fmt.Errorf("%s panic: %v", where, r)
	res.PanicStack = string(debug.Stack())
}

// typing infers the transformation's type assignments, most preferred
// first, under a "typing" span.
func (c *Checker) typing(span *telemetry.Span) *typed {
	t, opts := c.t, c.opts
	widths := opts.Widths
	if opts.DivMulMaxWidth > 0 && hasHardArith(t) {
		var capped []int
		for _, w := range widths {
			if w <= opts.DivMulMaxWidth {
				capped = append(capped, w)
			}
		}
		if len(capped) > 0 {
			widths = capped
		}
	}
	tspan := span.Child("typing", "typing")
	defer tspan.End()
	asgs, err := typing.Infer(t, typing.Options{
		Widths:         widths,
		PtrWidth:       opts.PtrWidth,
		MaxAssignments: opts.MaxAssignments,
	})
	if err != nil {
		tspan.SetAttr("error", err.Error())
		return &typed{err: err}
	}
	tspan.SetInt("assignments", int64(len(asgs)))
	if rootInstr := t.SourceValue(t.Root); rootInstr != nil {
		typing.SortByPreference(asgs, rootInstr)
	}
	return &typed{asgs: asgs}
}

// unknownDetail records where and why a single-assignment check gave up.
type unknownDetail struct {
	reason    UnknownReason
	condition string
	err       error
}

// verifyAssignment checks one type assignment, climbing the
// conflict-budget escalation ladder on budget-bound Unknowns while the
// deadline leaves time: each retry multiplies the budget by 4, so the
// total work stays within ~4/3 of the final (successful) rung.
func (c *Checker) verifyAssignment(asg *typing.Assignment, g *governor, res *Result, span *telemetry.Span, index int, rec *queryRecorder) (v Verdict, cex *Counterexample, queries, escalations int, detail unknownDetail) {
	if rec != nil {
		// Samples emitted from here on belong to this assignment; the
		// verification is single-threaded so a plain store suffices.
		rec.assignment = index
	}
	aspan := span.Child("assignment", "assignment")
	if aspan != nil {
		aspan.SetInt("index", int64(index))
		aspan.SetAttr("types", asg.String())
		defer func() {
			aspan.SetAttr("verdict", v.String())
			if escalations > 0 {
				aspan.SetInt("escalations", int64(escalations))
			}
			aspan.End()
		}()
	}
	budget := c.opts.MaxConflicts
	if g.hasDeadline() && budget <= 0 {
		budget = escalationStart
	}
	for {
		var q int
		v, cex, q, detail = c.verifyOne(asg, c.session(index), budget, g, res, aspan, rec)
		queries += q
		if v != Unknown {
			return v, cex, queries, escalations, unknownDetail{}
		}
		// The search may have stopped mid-bit-blast or mid-preprocess:
		// the next rung, and the next Check, start this assignment afresh.
		delete(c.state, index)
		canEscalate := g.hasDeadline() && budget > 0 && g.timeLeft() &&
			detail.reason == ReasonConflictBudget
		if !canEscalate {
			return Unknown, nil, queries, escalations, detail
		}
		budget *= 4
		escalations++
	}
}

// condition is one negated correctness obligation: Sat means violated.
type condition struct {
	kind CexKind
	name string
	body *smt.Term
}

// buildConditions encodes t under asg on b and returns the negated
// correctness conditions plus the source undef variables they are
// universally closed over after negation.
func buildConditions(b *smt.Builder, t *ir.Transform, asg *typing.Assignment) (*vcgen.Encoding, []condition, error) {
	enc, err := vcgen.Encode(b, t, asg)
	if err != nil {
		return nil, nil, err
	}
	var conds []condition

	alpha := b.True()
	if enc.Mem != nil {
		alpha = enc.Mem.Alpha
	}

	for _, name := range enc.SharedNames {
		src, tgt := enc.Src[name], enc.Tgt[name]
		psi := b.And(enc.Pre, src.Def, src.Poison, alpha)
		// Condition 1: target defined when source is.
		if src.Def != tgt.Def {
			conds = append(conds, condition{CexMoreUndefined, name, b.And(psi, b.Not(tgt.Def))})
		}
		// Condition 2: target poison-free when source is.
		if src.Poison != tgt.Poison {
			conds = append(conds, condition{CexMorePoison, name, b.And(psi, b.Not(tgt.Poison))})
		}
		// Condition 3: equal values.
		if src.Val != nil && tgt.Val != nil && src.Val != tgt.Val {
			conds = append(conds, condition{CexValueMismatch, name, b.And(psi, b.Ne(src.Val, tgt.Val))})
		}
	}
	if enc.Mem != nil {
		// Target side effects must be defined wherever the source's are
		// (sequence-point propagation, Section 3.3.1).
		if enc.Mem.SrcSeqDef != enc.Mem.TgtSeqDef {
			body := b.And(enc.Pre, alpha, enc.Mem.SrcSeqDef, b.Not(enc.Mem.TgtSeqDef))
			conds = append(conds, condition{CexMoreUndefined, t.Root, body})
		}
		// Condition 4: final memories agree at every address outside
		// template-local allocations.
		body := b.And(enc.Pre, alpha, enc.Mem.SrcSeqDef, enc.Mem.OutsideLocal, b.Ne(enc.Mem.SrcFinal, enc.Mem.TgtFinal))
		conds = append(conds, condition{CexMemoryMismatch, t.Root, body})
	}
	return enc, conds, nil
}

// condName names a correctness condition for give-up diagnostics.
func condName(k CexKind) string {
	switch k {
	case CexMoreUndefined:
		return "defined"
	case CexMorePoison:
		return "poison"
	case CexValueMismatch:
		return "value"
	case CexMemoryMismatch:
		return "memory"
	}
	return "condition"
}

// verifyOne checks conditions 1-4 under a single type assignment with
// the given conflict budget, reporting which condition and why on an
// Unknown outcome.
func (c *Checker) verifyOne(asg *typing.Assignment, st *assignmentState, maxConflicts int64, g *governor, res *Result, aspan *telemetry.Span, rec *queryRecorder) (Verdict, *Counterexample, int, unknownDetail) {
	t, b := c.t, st.b
	vspan := aspan.Child("vcgen", "vcgen")
	enc, conds, err := buildConditions(b, t, asg)
	if err != nil {
		vspan.SetAttr("error", err.Error())
		vspan.End()
		return Unknown, nil, 0, unknownDetail{reason: ReasonEncoding, err: err}
	}
	vspan.SetInt("conditions", int64(len(conds)))
	vspan.End()
	// One solver session per type assignment: every condition and CEGIS
	// round below shares this solver's core, so their VCs — built on one
	// Builder and sharing most of their term DAG — become assumption
	// flips over a common encoding. A kept session also carries over
	// from this assignment's previous Check, so this call's budget,
	// stop flag and sampler replace the previous call's.
	sol := &st.sol
	sol.MaxConflicts, sol.Stop, sol.OnSample = maxConflicts, &g.flag, nil
	if rec != nil {
		sol.OnSample = rec.onSample
	}
	// Aggregate this call's own work however the loop exits (valid,
	// invalid, or unknown).
	before := sol.Stats
	defer func() { res.Counters.Add(sol.Stats.Sub(before)) }()
	queries := 0
	for _, cond := range conds {
		queries++
		if rec != nil {
			rec.condition = condName(cond.kind)
		}
		cspan := aspan.Child("check:"+condName(cond.kind), "condition")
		sol.Span = cspan
		// Value obligations are miters (ψ ∧ src ≠ tgt): the session may
		// bit-slice the disequality into assumption-level sub-queries.
		// Definedness and poison obligations have no such gradient.
		sol.Miter = cond.kind == CexValueMismatch
		before := sol.Stats
		r := sol.CheckExistsForall(b, cond.body, enc.SrcUndefs)
		sol.Span = nil
		if cspan != nil {
			cspan.SetAttr("status", r.Status.String())
			cspan.SetInt("cegis_rounds", int64(r.Rounds))
			cspan.SetCounters(sol.Stats.Sub(before))
			cspan.End()
		}
		switch r.Status {
		case solver.Unsat:
			continue
		case solver.Unknown:
			return Unknown, nil, queries, unknownDetail{reason: g.mapCause(r.Cause), condition: condName(cond.kind)}
		}
		cex := buildCex(t, asg, enc, cond.kind, cond.name, r.Model)
		return Invalid, cex, queries, unknownDetail{}
	}
	return Valid, nil, queries, unknownDetail{}
}

// DumpQueries renders the negated correctness conditions of the first
// (counterexample-preferred) type assignment as SMT-LIB 2 scripts —
// useful for cross-checking this repository's solver against an external
// SMT solver. Conditions with source undef variables carry a header
// comment noting the ∀ closure that the quantifier-free script omits.
func DumpQueries(t *ir.Transform, opts Options) ([]string, error) {
	opts = opts.withDefaults()
	asgs, err := typing.Infer(t, typing.Options{
		Widths:         opts.Widths,
		PtrWidth:       opts.PtrWidth,
		MaxAssignments: 1,
	})
	if err != nil {
		return nil, err
	}
	if len(asgs) == 0 {
		return nil, fmt.Errorf("no feasible type assignment for %q at widths %v", t.Name, opts.Widths)
	}
	if rootInstr := t.SourceValue(t.Root); rootInstr != nil {
		typing.SortByPreference(asgs, rootInstr)
	}
	b := smt.NewBuilder()
	b.Simplify = !opts.DisableSimplify
	enc, conds, err := buildConditions(b, t, asgs[0])
	if err != nil {
		return nil, err
	}
	var out []string
	for _, cond := range conds {
		script := smt.ToSMTLIB(cond.body)
		if len(enc.SrcUndefs) > 0 {
			names := make([]string, len(enc.SrcUndefs))
			for i, u := range enc.SrcUndefs {
				names[i] = u.Name
			}
			script = fmt.Sprintf("; NOTE: valid iff unsat for ALL values of source undefs %v\n%s", names, script)
		}
		out = append(out, fmt.Sprintf("; %s: negated condition on %s (unsat = condition holds)\n%s",
			t.Name, cond.name, script))
	}
	return out, nil
}

// buildCex renders a solver model as a Figure 5-style counterexample,

// evaluating the source's intermediate instructions under the model.
func buildCex(t *ir.Transform, asg *typing.Assignment, enc *vcgen.Encoding, kind CexKind, name string, model *smt.Model) *Counterexample {
	cex := &Counterexample{Kind: kind, RootName: name}
	rootInstr := t.SourceValue(name)
	if rootInstr != nil {
		cex.Width = asg.WidthOf(rootInstr)
	}
	cex.TypeStr = asg.String()

	// Inputs and constants, in first-use order.
	for _, in := range t.Inputs() {
		w := asg.WidthOf(in)
		val, ok := model.BVs[in.VName]
		if !ok {
			val = bv.Zero(w)
		}
		cex.Inputs = append(cex.Inputs, NamedValue{Name: in.VName, Width: w, Val: val})
	}
	for _, c := range t.Constants() {
		w := asg.WidthOf(c)
		val, ok := model.BVs[c.CName]
		if !ok {
			val = bv.Zero(w)
		}
		cex.Inputs = append(cex.Inputs, NamedValue{Name: c.CName, Width: w, Val: val})
	}

	// Intermediate source values (every named source instruction except
	// the failing one), evaluated under the model; absent variables (the
	// universally quantified source undefs) evaluate as zero, which is a
	// valid witness since the counterexample holds for all of them.
	for _, in := range t.Source {
		n := in.Name()
		if n == "" || n == name {
			continue
		}
		if e, ok := enc.Src[n]; ok && e.Val != nil {
			v := smt.Eval(e.Val, model)
			cex.Intermediates = append(cex.Intermediates, NamedValue{Name: n, Width: v.V.Width(), Val: v.V})
		}
	}

	if kind == CexValueMismatch {
		if se, ok := enc.Src[name]; ok && se.Val != nil {
			cex.SrcValue = smt.Eval(se.Val, model).V
			cex.HasValues = true
		}
		if te, ok := enc.Tgt[name]; ok && te.Val != nil {
			cex.TgtValue = smt.Eval(te.Val, model).V
		}
	}
	return cex
}
