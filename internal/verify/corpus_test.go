package verify

import (
	"context"
	"runtime"
	"testing"
	"time"

	"alive/internal/ir"
	"alive/internal/parser"
	"alive/internal/suite"
)

func parseNamed(t *testing.T, name, src string) *ir.Transform {
	t.Helper()
	tr, err := parser.ParseOne(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	tr.Name = name
	return tr
}

func simpleValid(t *testing.T, name string) *ir.Transform {
	return parseNamed(t, name, "%r = and %x, %x\n=>\n%r = %x\n")
}

func TestRunCorpusOrderingAndStats(t *testing.T) {
	ts := []*ir.Transform{
		simpleValid(t, "v0"),
		parseNamed(t, "bug", "%r = lshr %x, 1\n=>\n%r = ashr %x, 1\n"),
		simpleValid(t, "v1"),
		simpleValid(t, "v2"),
	}
	var seen []int
	results, stats := RunCorpus(context.Background(), ts, CorpusOptions{
		Verify:   Options{Widths: []int{4}},
		Workers:  3,
		OnResult: func(i int, r Result) { seen = append(seen, i) },
	})
	if len(results) != len(ts) {
		t.Fatalf("got %d results for %d transforms", len(results), len(ts))
	}
	for i, r := range results {
		if r.Transform != ts[i] {
			t.Fatalf("results[%d] is %q — ordering not deterministic", i, r.Transform.Name)
		}
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("OnResult order %v not the input order", seen)
		}
	}
	if results[1].Verdict != Invalid {
		t.Fatalf("bug verdict = %v, want invalid", results[1].Verdict)
	}
	if stats.Valid != 3 || stats.Invalid != 1 || stats.Unknown != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Completed != 4 || stats.Interrupted {
		t.Fatalf("stats = %+v, want 4 completed, no interrupt", stats)
	}
}

// TestRunCorpusLiveReused runs two corpora through one Live record:
// each call's CorpusStats, and the snapshot taken after it, must
// describe that call alone.
func TestRunCorpusLiveReused(t *testing.T) {
	live := NewLive()
	runs := [][]*ir.Transform{
		{simpleValid(t, "v0"), parseNamed(t, "bug", "%r = lshr %x, 1\n=>\n%r = ashr %x, 1\n"), simpleValid(t, "v1")},
		{parseNamed(t, "mul", "%r = mul %x, 2\n=>\n%r = shl %x, 1\n")},
	}
	for n, ts := range runs {
		results, stats := RunCorpus(context.Background(), ts, CorpusOptions{
			Verify:  Options{Widths: []int{4}},
			Workers: 2,
			Live:    live,
		})
		var want CorpusStats
		for _, r := range results {
			switch r.Verdict {
			case Valid:
				want.Valid++
			case Invalid:
				want.Invalid++
			}
			want.Queries += r.Queries
			want.Counters.Add(r.Counters)
		}
		if stats.Total != len(ts) || stats.Completed != len(ts) || stats.Valid != want.Valid ||
			stats.Invalid != want.Invalid || stats.Queries != want.Queries || stats.Counters != want.Counters {
			t.Fatalf("run %d: stats = %+v, want the tallies of its own %d results %+v", n, stats, len(ts), want)
		}
		snap := live.Snapshot()
		if snap.Total != len(ts) || snap.Completed != len(ts) || snap.Valid != want.Valid ||
			snap.Invalid != want.Invalid || snap.Queries != want.Queries {
			t.Fatalf("run %d: snapshot = %+v, want the tallies of its own %d results", n, snap, len(ts))
		}
	}
}

// TestRunCorpusFaultTolerance is the acceptance scenario: a corpus with
// an injected panicking transform and an injected hard query under a
// tiny deadline completes with per-transform Unknown verdicts carrying
// the right reasons — never a crash or hang.
func TestRunCorpusFaultTolerance(t *testing.T) {
	hard := parseNamed(t, "hard", hardTransform)
	ts := []*ir.Transform{
		simpleValid(t, "ok0"),
		parseNamed(t, "boom", "%r = add %x, 0\n=>\n%r = %x\n"),
		hard,
		simpleValid(t, "ok1"),
	}
	testHookAfterTyping = func(tr *ir.Transform) {
		if tr.Name == "boom" {
			panic("injected corpus fault")
		}
	}
	defer func() { testHookAfterTyping = nil }()

	results, stats := RunCorpus(context.Background(), ts, CorpusOptions{
		Verify:           Options{Widths: []int{32}, DivMulMaxWidth: -1, MaxAssignments: 1},
		TransformTimeout: 100 * time.Millisecond,
	})
	if results[0].Verdict != Valid || results[3].Verdict != Valid {
		t.Fatalf("healthy transforms: %v, %v", results[0].Verdict, results[3].Verdict)
	}
	if results[1].Verdict != Unknown || results[1].Reason != ReasonPanic {
		t.Fatalf("panicking transform: %v/%v, want unknown/internal-panic", results[1].Verdict, results[1].Reason)
	}
	if results[2].Verdict != Unknown || results[2].Reason != ReasonDeadline {
		t.Fatalf("hard transform: %v/%v, want unknown/deadline", results[2].Verdict, results[2].Reason)
	}
	if stats.Panics != 1 || stats.Unknown != 2 || stats.Valid != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Interrupted {
		t.Fatal("run must not read as interrupted")
	}
}

func TestRunCorpusInterrupt(t *testing.T) {
	// A mid-run cancellation (as a signal handler would issue) must
	// return promptly with partial results, in order, and no goroutine
	// leak.
	var ts []*ir.Transform
	for i := 0; i < 24; i++ {
		ts = append(ts, simpleValid(t, "t"+string(rune('a'+i))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Only the first three transforms may finish before the cancel:
	// every later one waits after typing until it has fired. Without the
	// gate two workers can verify all 24 trivial transforms before the
	// third in-order delivery cancels, and nothing is left to skip.
	gated := map[*ir.Transform]bool{}
	for _, tr := range ts[3:] {
		gated[tr] = true
	}
	testHookAfterTyping = func(tr *ir.Transform) {
		if gated[tr] {
			<-ctx.Done()
		}
	}
	defer func() { testHookAfterTyping = nil }()

	before := runtime.NumGoroutine()
	delivered := 0
	results, stats := RunCorpus(ctx, ts, CorpusOptions{
		Verify:  Options{Widths: []int{4}},
		Workers: 2,
		OnResult: func(i int, r Result) {
			delivered++
			if delivered == 3 {
				cancel()
			}
		},
	})
	if !stats.Interrupted {
		t.Fatal("interrupted run not flagged")
	}
	if delivered != len(ts) {
		t.Fatalf("OnResult delivered %d of %d results (skips must stream too)", delivered, len(ts))
	}
	skipped := 0
	for i, r := range results {
		if r.Transform != ts[i] {
			t.Fatalf("results[%d] out of order", i)
		}
		if r.Verdict == Unknown && r.Reason == ReasonCancelled {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no transform was skipped despite the early cancel")
	}
	if stats.Completed+skipped < len(ts) {
		t.Fatalf("completed %d + skipped %d < total %d", stats.Completed, skipped, len(ts))
	}

	var after int
	for i := 0; i < 100; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines: %d before, %d after — worker leak", before, after)
	}
}

func TestRunCorpusTotalDeadline(t *testing.T) {
	// A whole-run deadline marks everything still pending as deadline
	// skips.
	hard := parseNamed(t, "hard", hardTransform)
	ts := []*ir.Transform{hard, simpleValid(t, "late")}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	results, stats := RunCorpus(ctx, ts, CorpusOptions{
		Verify:  Options{Widths: []int{32}, DivMulMaxWidth: -1, MaxAssignments: 1},
		Workers: 1,
	})
	if !stats.Interrupted {
		t.Fatal("deadline run not flagged interrupted")
	}
	if results[0].Verdict != Unknown || results[0].Reason != ReasonDeadline {
		t.Fatalf("hard: %v/%v, want unknown/deadline", results[0].Verdict, results[0].Reason)
	}
	// The second may have been skipped (deadline) or squeezed in —
	// either way the run terminates promptly and the entry is present.
	if results[1].Transform != ts[1] {
		t.Fatal("partial results lost an entry")
	}
}

// TestRunCorpusParallelSpeedup checks the pool genuinely overlaps work:
// with a blocking stage injected into each verification, N workers must
// finish close to N× faster than one. (Blocking, not CPU-bound, so the
// test is meaningful on single-core runners too.)
func TestRunCorpusParallelSpeedup(t *testing.T) {
	const n, delay = 8, 40 * time.Millisecond
	var ts []*ir.Transform
	for i := 0; i < n; i++ {
		ts = append(ts, simpleValid(t, "s"+string(rune('0'+i))))
	}
	testHookAfterTyping = func(*ir.Transform) { time.Sleep(delay) }
	defer func() { testHookAfterTyping = nil }()

	opts := CorpusOptions{Verify: Options{Widths: []int{4}}, Workers: 1}
	_, seq := RunCorpus(context.Background(), ts, opts)
	opts.Workers = n
	_, par := RunCorpus(context.Background(), ts, opts)

	if par.Duration*2 > seq.Duration {
		t.Fatalf("parallel %v not ≥2x faster than sequential %v", par.Duration, seq.Duration)
	}
}

func TestRunCorpusEmptyAndSuiteSmoke(t *testing.T) {
	results, stats := RunCorpus(context.Background(), nil, CorpusOptions{})
	if len(results) != 0 || stats.Total != 0 {
		t.Fatalf("empty corpus: %v %+v", results, stats)
	}

	// A slice of real suite entries through the parallel driver agrees
	// with the sequential verifier.
	entries := suite.All()[:6]
	var ts []*ir.Transform
	for _, e := range entries {
		ts = append(ts, e.Parse())
	}
	opts := Options{Widths: []int{4}, MaxAssignments: 2}
	par, _ := RunCorpus(context.Background(), ts, CorpusOptions{Verify: opts})
	for i, tr := range ts {
		seq := Verify(tr, opts)
		if par[i].Verdict != seq.Verdict {
			t.Fatalf("%s: parallel %v != sequential %v", entries[i].Name, par[i].Verdict, seq.Verdict)
		}
	}
}
