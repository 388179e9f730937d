//go:build chaos

// The chaos suite: drives the fault-injection framework
// (internal/faultinject, `go test -tags chaos`) over seeded random
// schedules and a per-site × per-kind matrix, asserting the pipeline's
// failure contract:
//
//   - the corpus run always completes — no deadlock, no hang;
//   - no goroutine outlives its run (leakcheck, per seed and globally);
//   - every injected fault surfaces as a structured Unknown whose
//     UnknownReason matches the fault kind — never a crash, never a
//     silently wrong verdict;
//   - transformations a fault did not touch produce verdicts
//     bit-identical to a fault-free run.
package verify

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"alive/internal/faultinject"
	"alive/internal/ir"
	"alive/internal/leakcheck"
	"alive/internal/parser"
	"alive/internal/telemetry"
)

// chaosSources is a cheap, diverse corpus: valid and invalid
// transformations, multi-instruction chains, hard-arith ops, and
// undef-in-source transforms that engage the CEGIS engine (so the
// cegis-round site is reachable).
var chaosSources = []struct{ name, src string }{
	{"and-self", "%r = and %x, %x\n=>\n%r = %x\n"},
	{"add-zero", "%r = add %x, 0\n=>\n%r = %x\n"},
	{"or-self", "%r = or %x, %x\n=>\n%r = %x\n"},
	{"xor-self", "%r = xor %x, %x\n=>\n%r = 0\n"},
	{"sub-zero", "%r = sub %x, 0\n=>\n%r = %x\n"},
	{"mul-two", "%r = mul %x, 2\n=>\n%r = shl %x, 1\n"},
	{"bad-shift", "%r = lshr %x, 1\n=>\n%r = ashr %x, 1\n"},
	{"negate", "%1 = xor %x, -1\n%2 = add %1, 1\n=>\n%2 = sub 0, %x\n"},
	{"undef-select", "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3\n"},
	{"undef-xor", "%r = xor undef, undef\n=>\n%r = 0\n"},
	{"undef-or", "%r = or undef, 1\n=>\n%r = 1\n"},
	{"shl-one", "%r = shl %x, 1\n=>\n%r = add %x, %x\n"},
	{"and-zero", "%r = and %x, 0\n=>\n%r = 0\n"},
	{"or-ones", "%r = or %x, -1\n=>\n%r = -1\n"},
	{"xor-zero", "%r = xor %x, 0\n=>\n%r = %x\n"},
	{"sub-self", "%r = sub %x, %x\n=>\n%r = 0\n"},
	{"add-self", "%r = add %x, %x\n=>\n%r = shl %x, 1\n"},
	{"div-one", "%r = sdiv %x, 1\n=>\n%r = %x\n"},
	{"lshr-zero", "%r = lshr %x, 0\n=>\n%r = %x\n"},
	{"mul-zero", "%r = mul %x, 0\n=>\n%r = 0\n"},
}

func chaosCorpus(t testing.TB) []*ir.Transform {
	t.Helper()
	var ts []*ir.Transform
	for _, s := range chaosSources {
		tr, err := parser.ParseOne(s.src)
		if err != nil {
			t.Fatalf("parse %s: %v", s.name, err)
		}
		tr.Name = s.name
		ts = append(ts, tr)
	}
	return ts
}

// runChaos executes the corpus with a tracer attached (so the
// telemetry-sink site is live) on a small worker pool.
func runChaos(ts []*ir.Transform) ([]Result, CorpusStats) {
	return RunCorpus(context.Background(), ts, CorpusOptions{
		Verify:  Options{Widths: []int{4, 8}, MaxAssignments: 2, Trace: telemetry.New()},
		Workers: 4,
	})
}

// chaosBaseline runs the corpus fault-free.
func chaosBaseline(ts []*ir.Transform) []Result {
	faultinject.Deactivate()
	results, _ := runChaos(ts)
	return results
}

// allowedReasons maps the faults that actually fired to the Unknown
// reasons they are permitted to surface as.
func allowedReasons(fired []faultinject.Fault) map[UnknownReason]bool {
	m := map[UnknownReason]bool{}
	for _, f := range fired {
		switch f.Kind {
		case faultinject.KindPanic, faultinject.KindStop:
			m[ReasonInjected] = true
		case faultinject.KindOOM:
			m[ReasonOOM] = true
		case faultinject.KindDeadline:
			m[ReasonDeadline] = true
		}
	}
	return m
}

// checkChaosInvariants asserts the failure contract for one schedule.
func checkChaosInvariants(t *testing.T, label string, ts []*ir.Transform, baseline, results []Result, stats CorpusStats, plan *faultinject.Plan) {
	t.Helper()
	fired := plan.Fired()
	allowed := allowedReasons(fired)
	disruptive := len(allowed) > 0 // at least one non-delay fault fired

	if stats.Interrupted {
		t.Errorf("%s: uncancelled run reads as interrupted", label)
	}
	unknowns := 0
	for i, r := range results {
		if r.Verdict == Unknown {
			unknowns++
			if !allowed[r.Reason] {
				t.Errorf("%s: %s: Unknown(%v) not justified by fired faults %v",
					label, ts[i].Name, r.Reason, fired)
			}
			continue
		}
		// Untouched verdicts must be bit-identical to the fault-free run.
		b := baseline[i]
		if r.Verdict != b.Verdict || r.Queries != b.Queries || r.TypeAssignments != b.TypeAssignments {
			t.Errorf("%s: %s: %v/%dq/%da differs from fault-free %v/%dq/%da",
				label, ts[i].Name, r.Verdict, r.Queries, r.TypeAssignments,
				b.Verdict, b.Queries, b.TypeAssignments)
		}
		if r.Verdict == Invalid && b.Cex != nil && (r.Cex == nil || r.Cex.String() != b.Cex.String()) {
			t.Errorf("%s: %s: counterexample drifted under faults", label, ts[i].Name)
		}
	}
	if disruptive && unknowns == 0 {
		t.Errorf("%s: faults fired (%v) but no structured Unknown surfaced", label, fired)
	}
	if !disruptive && unknowns != 0 {
		t.Errorf("%s: %d Unknowns with no disruptive fault fired (%v)", label, unknowns, fired)
	}
	// Every tally must match a recount of the results it came from.
	var want CorpusStats
	for _, r := range results {
		switch r.Verdict {
		case Valid:
			want.Valid++
		case Invalid:
			want.Invalid++
		case Rejected:
			want.Rejected++
		default:
			want.Unknown++
			switch r.Reason {
			case ReasonPanic:
				want.Panics++
			case ReasonCancelled:
				want.Cancelled++
			}
		}
		want.Queries += r.Queries
		want.Escalations += r.Escalations
		want.Counters.Add(r.Counters)
	}
	got := CorpusStats{
		Valid: stats.Valid, Invalid: stats.Invalid, Rejected: stats.Rejected,
		Unknown: stats.Unknown, Panics: stats.Panics, Cancelled: stats.Cancelled,
		Queries: stats.Queries, Escalations: stats.Escalations, Counters: stats.Counters,
	}
	if got != want {
		t.Errorf("%s: tallies %+v differ from a recount of the results %+v", label, got, want)
	}
}

// TestChaosSchedules sweeps seeded random fault schedules (the
// acceptance criterion runs 100+ seeds; -short trims the sweep).
func TestChaosSchedules(t *testing.T) {
	ts := chaosCorpus(t)
	baseline := chaosBaseline(ts)
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.RandomPlan(uint64(seed), 1+seed%6)
		faultinject.Activate(plan)
		results, stats := runChaos(ts)
		faultinject.Deactivate()
		checkChaosInvariants(t, fmt.Sprintf("seed %d (plan %v)", seed, plan.Faults()), ts, baseline, results, stats, plan)
		if err := leakcheck.Check(2 * time.Second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			t.FailNow() // first bad seed is the reproducer; stop there
		}
	}
}

// TestChaosSiteKindMatrix pins down each site × kind pair with a
// deterministic single-fault plan at hit 1.
func TestChaosSiteKindMatrix(t *testing.T) {
	ts := chaosCorpus(t)
	baseline := chaosBaseline(ts)
	for _, site := range faultinject.Sites() {
		if site == faultinject.SiteParser {
			continue // no parse happens inside RunCorpus; see TestChaosParserFault
		}
		kinds := []faultinject.Kind{faultinject.KindPanic, faultinject.KindOOM, faultinject.KindDelay}
		if faultinject.StopCapable(site) {
			kinds = append(kinds, faultinject.KindStop, faultinject.KindDeadline)
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", site, kind), func(t *testing.T) {
				f := faultinject.Fault{Site: site, Kind: kind, Hit: 1, Delay: time.Millisecond}
				plan := faultinject.NewPlan([]faultinject.Fault{f})
				faultinject.Activate(plan)
				defer faultinject.Deactivate()
				results, stats := runChaos(ts)
				if len(plan.Fired()) == 0 {
					t.Fatalf("fault %v never fired — site unreachable on the chaos corpus", f)
				}
				checkChaosInvariants(t, f.String(), ts, baseline, results, stats, plan)
				if err := leakcheck.Check(2 * time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChaosParserFault: the parser's own panic recovery must turn an
// injected fault into an ordinary parse error, and only for the parse
// it was scheduled against.
func TestChaosParserFault(t *testing.T) {
	plan := faultinject.NewPlan([]faultinject.Fault{
		{Site: faultinject.SiteParser, Kind: faultinject.KindPanic, Hit: 1},
	})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	_, err := parser.Parse("%r = and %x, %x\n=>\n%r = %x\n")
	if err == nil {
		t.Fatal("injected parser panic produced no error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Errorf("parser error %q does not read as a recovered panic", err)
	}
	if _, err := parser.Parse("%r = and %x, %x\n=>\n%r = %x\n"); err != nil {
		t.Fatalf("parse after the scheduled hit must succeed: %v", err)
	}
}

// FuzzChaos fuzzes the (seed, fault-count) schedule space with the same
// invariant checker the seeded sweep uses.
func FuzzChaos(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(6))
	ts := chaosCorpus(f)
	baseline := chaosBaseline(ts)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		if n == 0 || n > 12 {
			t.Skip()
		}
		plan := faultinject.RandomPlan(seed, int(n))
		faultinject.Activate(plan)
		defer faultinject.Deactivate()
		results, stats := runChaos(ts)
		checkChaosInvariants(t, fmt.Sprintf("seed %#x n %d", seed, n), ts, baseline, results, stats, plan)
		if err := leakcheck.Check(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}
