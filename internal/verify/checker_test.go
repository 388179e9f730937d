package verify

import (
	"context"
	"testing"
	"time"

	"alive/internal/ir"
	"alive/internal/sat"
	"alive/internal/telemetry"
)

// checkerSrc has one type assignment at width 8, and its value
// condition reaches the SAT core; its adds carry the flag slots.
const checkerSrc = "%1 = and %x, %y\n%2 = or %x, %y\n%r = add %1, %2\n=>\n%r = add %x, %y\n"

var checkerOpts = Options{Widths: []int{8}}

// sameAsFresh fails unless got matches a fresh one-shot Verify of tr:
// verdict, queries and every counter.
func sameAsFresh(t *testing.T, tr *ir.Transform, got Result) {
	t.Helper()
	want := Verify(tr, checkerOpts)
	if got.Verdict != want.Verdict || got.Queries != want.Queries || got.Counters != want.Counters {
		t.Fatalf("check = %v, %d queries, %+v\nfresh Verify = %v, %d queries, %+v",
			got.Verdict, got.Queries, got.Counters, want.Verdict, want.Queries, want.Counters)
	}
}

// TestCheckerCancelledCheckDropsState stops a Check as its first core
// search starts (the tracer's clock trips the stop flag when the cdcl
// span opens, the first span after preprocessing). The assignment's
// half-used session must be dropped, so the next Check equals a fresh
// Verify.
func TestCheckerCancelledCheckDropsState(t *testing.T) {
	tr := parseOne(t, checkerSrc)
	opts := checkerOpts
	var flag *sat.StopFlag
	opts.onStart = func(_ *ir.Transform, f *sat.StopFlag) func() { flag = f; return nil }
	armed := true
	var tracer *telemetry.Tracer
	tracer = telemetry.NewWithClock(func() time.Time {
		for _, ev := range tracer.Events() {
			if armed && ev.Name == "preprocess" {
				armed = false
				flag.Stop()
			}
		}
		return time.Now()
	})
	opts.Trace = tracer
	c := NewChecker(tr, opts)

	r := c.Check(context.Background())
	if r.Verdict != Unknown || r.Reason != ReasonCancelled || r.GaveUpCondition != "value" {
		t.Fatalf("stopped check = %v/%v in %q, want unknown/cancelled in the value condition", r.Verdict, r.Reason, r.GaveUpCondition)
	}
	if len(c.state) != 0 {
		t.Fatalf("a stopped check kept %d sessions", len(c.state))
	}
	sameAsFresh(t, tr, c.Check(context.Background()))
}

// TestCheckerPanicClearsState: a panic recovered in Check may have left
// any session half-updated, so it drops every kept session.
func TestCheckerPanicClearsState(t *testing.T) {
	tr := parseOne(t, checkerSrc)
	c := NewChecker(tr, checkerOpts)
	if r := c.Check(context.Background()); r.Verdict != Valid || len(c.state) != 1 {
		t.Fatalf("first check = %v with %d sessions, want valid with 1", r.Verdict, len(c.state))
	}
	testHookAfterTyping = func(*ir.Transform) { panic("injected") }
	r := c.Check(context.Background())
	testHookAfterTyping = nil
	if r.Reason != ReasonPanic {
		t.Fatalf("panicking check reason = %v, want %v", r.Reason, ReasonPanic)
	}
	if len(c.state) != 0 {
		t.Fatalf("a panic kept %d sessions", len(c.state))
	}
	sameAsFresh(t, tr, c.Check(context.Background()))
}

// TestCheckerReusesEncodings: after one flag flip, the second Check
// answers on the first one's session and reuses its encodings. The
// target add gains nsw, which the source does not guarantee, so the
// verdict flips to invalid.
func TestCheckerReusesEncodings(t *testing.T) {
	tr := parseOne(t, checkerSrc)
	c := NewChecker(tr, checkerOpts)
	if r := c.Check(context.Background()); r.Verdict != Valid {
		t.Fatalf("first check = %v, want valid", r.Verdict)
	}
	tr.Target[len(tr.Target)-1].(*ir.BinOp).Flags |= ir.NSW
	r := c.Check(context.Background())
	if r.Verdict != Invalid || r.Cex.Kind != CexMorePoison {
		t.Fatalf("check with target nsw = %v, want invalid (more poison)", r.Verdict)
	}
	if r.Counters.EncodingsReused == 0 {
		t.Fatalf("second check reused no encodings: %+v", r.Counters)
	}
	if fresh := Verify(tr, checkerOpts); fresh.Verdict != Invalid || fresh.Counters.EncodingsReused != 0 {
		t.Fatalf("fresh Verify = %v with %d encodings reused, want invalid with 0", fresh.Verdict, fresh.Counters.EncodingsReused)
	}
}

// undefWidthSrc has type assignments that differ only in the width of
// an unnamed value: at widths {4,8} the target's undef, compared with
// 3, takes either width under every width of the named values. Both
// arms of the select compute x+y, so it is valid, and its adds carry
// the flag slots.
const undefWidthSrc = "%r = add %x, %y\n=>\n%c = icmp ult undef, 3\n%a = add %x, %y\n%n = sub 0, %y\n%b = sub %x, %n\n%r = select %c, %a, %b\n"

// TestCheckerKeepsEachAssignment: one Checker answers flag flips of a
// transform whose type assignments differ only in unnamed values, at
// several widths, and every verdict and counterexample kind equals a
// fresh Verify. A session shared between two such assignments would
// hand the second one the first one's undef bits.
func TestCheckerKeepsEachAssignment(t *testing.T) {
	tr := parseOne(t, undefWidthSrc)
	opts := Options{Widths: []int{4, 8}}
	c := NewChecker(tr, opts)
	src, tgt := tr.Source[0].(*ir.BinOp), tr.Target[1].(*ir.BinOp)
	for step, flags := range [][2]ir.Flags{{0, 0}, {0, ir.NSW}, {ir.NUW, ir.NUW}, {0, 0}, {ir.NSW, 0}} {
		src.Flags, tgt.Flags = flags[0], flags[1]
		got := c.Check(context.Background())
		want := Verify(tr, opts)
		if got.Verdict != want.Verdict || got.Reason != want.Reason {
			t.Fatalf("step %d: Checker %v/%v (%v), fresh Verify %v/%v", step, got.Verdict, got.Reason, got.Err, want.Verdict, want.Reason)
		}
		if got.Verdict == Invalid && got.Cex.Kind != want.Cex.Kind {
			t.Fatalf("step %d: Checker counterexample kind %d, fresh Verify %d", step, got.Cex.Kind, want.Cex.Kind)
		}
		if got.Verdict == Valid && (got.TypeAssignments != 4 || len(c.state) != 4) {
			t.Fatalf("step %d: %d type assignments, %d sessions kept, want 4 and 4", step, got.TypeAssignments, len(c.state))
		}
	}
}
