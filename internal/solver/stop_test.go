package solver

import (
	"fmt"
	"testing"
	"time"

	"alive/internal/sat"
	"alive/internal/smt"
	"alive/internal/telemetry"
)

func TestCheckTriviallyTrueModelContract(t *testing.T) {
	b := smt.NewBuilder()
	var s Solver
	x := b.Var("x", 8)
	p := b.BoolVar("p")
	// x = x and p ∨ ¬p both simplify to true at construction time, so the
	// variables never reach the solver. The result must still carry a
	// non-nil model whose defaulting accessors give a valid completion.
	r := s.Check(b, b.Eq(x, x), b.Or(p, b.Not(p)))
	if r.Status != Sat {
		t.Fatalf("tautology should be sat, got %v", r.Status)
	}
	if r.Model == nil {
		t.Fatal("sat result must carry a model")
	}
	if got := r.Model.BV("x", 8); !got.IsZero() {
		t.Fatalf("absent variable must read as zero, got %s", got)
	}
	if r.Model.Bool("p") {
		t.Fatal("absent Bool variable must read as false")
	}
}

func TestCheckExistsForallTrivialBody(t *testing.T) {
	// A body that simplifies to true exercises the defaulting model reads
	// in the CEGIS loop end to end.
	b := smt.NewBuilder()
	var s Solver
	x := b.Var("x", 4)
	u := b.Var("u", 4)
	r := s.CheckExistsForall(b, b.Eq(b.BVXor(x, u), b.BVXor(x, u)), []*smt.Term{u})
	if r.Status != Sat {
		t.Fatalf("trivial ∃∀ should be sat, got %v", r.Status)
	}
}

func TestCheckStoppedBeforeSolve(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{Stop: &sat.StopFlag{}}
	s.Stop.Stop()
	x := b.Var("x", 32)
	r := s.Check(b, b.Eq(b.Mul(x, x), b.ConstUint(32, 49)))
	if r.Status != Unknown || r.Cause != CauseStopped {
		t.Fatalf("pre-stopped check = %v/%v, want unknown/stopped", r.Status, r.Cause)
	}
}

// hardFactoring asserts x*y = p for a 32-bit prime with x, y < 2^16, so
// the product cannot wrap and the query is an unsat integer-factoring
// instance — the classic CDCL-hostile benchmark. Proving it needs far
// more work than any test budget allows.
func hardFactoring(b *smt.Builder) []*smt.Term {
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	one := b.ConstUint(32, 1)
	lim := b.ConstUint(32, 1<<16)
	return []*smt.Term{
		b.Eq(b.Mul(x, y), b.ConstUint(32, 3999999979)), // prime, < 65535^2
		b.Ult(one, x), b.Ult(one, y),
		b.Ult(x, lim), b.Ult(y, lim),
	}
}

func TestCheckStoppedMidSearch(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{Stop: &sat.StopFlag{}}

	done := make(chan Result, 1)
	go func() { done <- s.Check(b, hardFactoring(b)...) }()
	time.Sleep(50 * time.Millisecond)
	s.Stop.Stop()
	select {
	case r := <-done:
		if r.Status != Unknown || r.Cause != CauseStopped {
			t.Fatalf("stopped check = %v/%v, want unknown/stopped", r.Status, r.Cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("check did not notice the stop flag within 10s")
	}
}

// TestSessionPollsCurrentStopFlag: a session outlives the caller that
// opened it, and a finished caller's flag never trips (verify's
// governor only stops watching). A warm session that answers a new
// caller must stop on that caller's flag, here tripped at the first
// restart boundary of the core search; a core still polling the first
// caller's flag runs on past the trip and answers the query.
func TestSessionPollsCurrentStopFlag(t *testing.T) {
	b := smt.NewBuilder()
	first := &sat.StopFlag{}
	s := Solver{Stop: first}
	z := b.Var("z", 8)
	if r := s.Check(b, b.Eq(b.Mul(z, z), b.ConstUint(8, 49))); r.Status != Sat || s.sess == nil {
		t.Fatalf("opening query = %v (session %v), want a sat answer from the session", r.Status, s.sess != nil)
	}
	cur := &sat.StopFlag{}
	s.Stop = cur
	s.OnSample = func(sat.SampleStats) { cur.Stop() }
	done := make(chan Result, 1)
	go func() { done <- s.Check(b, hardFactoring(b)...) }()
	select {
	case r := <-done:
		if r.Status != Unknown || r.Cause != CauseStopped {
			t.Fatalf("check = %v/%v, want unknown/stopped", r.Status, r.Cause)
		}
	case <-time.After(10 * time.Second):
		first.Stop() // let the search end before failing
		<-done
		t.Fatal("the warm session did not notice the current stop flag within 10s")
	}
}

// TestCheckStoppedInPreprocessSamples: a query stopped while its
// clauses are being preprocessed never reaches the core solve, yet it
// must still hand OnSample exactly one snapshot, so a deadline that
// lands there leaves a flight record with a sample. The tracer's clock
// trips the flag as the preprocess span opens, the first span to start
// after bit-blasting ends.
func TestCheckStoppedInPreprocessSamples(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{Stop: &sat.StopFlag{}}
	var tr *telemetry.Tracer
	tr = telemetry.NewWithClock(func() time.Time {
		for _, ev := range tr.Events() {
			if ev.Name == "bitblast" {
				s.Stop.Stop()
			}
		}
		return time.Now()
	})
	s.Span = tr.NewTrack("test").Start("query", "test")
	var samples []sat.SampleStats
	s.OnSample = func(st sat.SampleStats) { samples = append(samples, st) }

	r := s.Check(b, hardFactoring(b)...)
	if r.Status != Unknown || r.Cause != CauseStopped {
		t.Fatalf("check = %v/%v, want unknown/stopped", r.Status, r.Cause)
	}
	var names []string
	for _, ev := range tr.Events() {
		names = append(names, ev.Name)
	}
	if want := "[presolve bitblast preprocess smt-check]"; fmt.Sprint(names) != want {
		t.Fatalf("spans = %v, want %s: the stop did not land in preprocessing", names, want)
	}
	if len(samples) != 1 {
		t.Fatalf("stopped query emitted %d samples, want 1", len(samples))
	}
}

func TestConflictBudgetCause(t *testing.T) {
	b := smt.NewBuilder()
	s := Solver{MaxConflicts: 1}
	r := s.Check(b, hardFactoring(b)...)
	if r.Status != Unknown {
		t.Fatalf("1-conflict factoring query should be unknown, got %v", r.Status)
	}
	if r.Cause != CauseConflictBudget {
		t.Fatalf("budget-limited check cause = %v, want conflict-budget", r.Cause)
	}
}
