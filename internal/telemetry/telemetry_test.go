package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading, making span timings
// deterministic.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tk := tr.NewTrack("x")
	if tk != nil {
		t.Fatal("nil tracer produced a track")
	}
	sp := tk.Start("a", "b")
	if sp != nil {
		t.Fatal("nil track produced a span")
	}
	child := sp.Child("c", "d")
	child.SetAttr("k", "v")
	child.SetInt("n", 1)
	child.SetCounters(Counters{Checks: 3})
	child.End()
	sp.End()
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer has events: %v", evs)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewWithClock(fakeClock(time.Millisecond))
	tk := tr.NewTrack("main")
	root := tk.Start("root", "test")
	c1 := root.Child("child1", "test")
	c1.End()
	c2 := root.Child("child2", "test")
	g := c2.Child("grandchild", "test")
	g.End()
	c2.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	within := func(inner, outer Event) bool {
		return inner.Start >= outer.Start &&
			inner.Start+inner.Dur <= outer.Start+outer.Dur
	}
	rootEv := byName["root"]
	for _, n := range []string{"child1", "child2", "grandchild"} {
		if !within(byName[n], rootEv) {
			t.Errorf("%s not nested within root: %+v vs %+v", n, byName[n], rootEv)
		}
	}
	if !within(byName["grandchild"], byName["child2"]) {
		t.Error("grandchild not nested within child2")
	}
	if byName["child1"].Start+byName["child1"].Dur > byName["child2"].Start {
		t.Error("sequential children overlap")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewWithClock(fakeClock(time.Millisecond))
	sp := tr.NewTrack("t").Start("s", "c")
	sp.End()
	sp.End()
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("double End recorded %d events, want 1", n)
	}
}

func TestUnendedSpanNotEmitted(t *testing.T) {
	tr := NewWithClock(fakeClock(time.Millisecond))
	sp := tr.NewTrack("t").Start("s", "c")
	_ = sp.Child("never-ended", "c")
	sp.End()
	for _, e := range tr.Events() {
		if e.Name == "never-ended" {
			t.Fatal("unended span was emitted")
		}
	}
}

// TestConcurrentTracks exercises the tracer from many goroutines; run
// under -race this is the data-race check for the corpus driver's
// per-worker tracks.
func TestConcurrentTracks(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers, spans = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := tr.NewTrack("worker")
			for i := 0; i < spans; i++ {
				sp := tk.Start("outer", "test")
				in := sp.Child("inner", "test")
				in.SetCounters(Counters{Conflicts: int64(i)})
				in.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if n := len(tr.Events()); n != workers*spans*2 {
		t.Fatalf("got %d events, want %d", n, workers*spans*2)
	}
	if n := len(tr.Tracks()); n != workers {
		t.Fatalf("got %d tracks, want %d", n, workers)
	}
	// Per track, completed events must form properly nested intervals.
	perTrack := map[int][]Event{}
	for _, e := range tr.Events() {
		perTrack[e.Track] = append(perTrack[e.Track], e)
	}
	for id, evs := range perTrack {
		for _, e := range evs {
			if e.Dur < 0 || e.Start < 0 {
				t.Fatalf("track %d: negative time %+v", id, e)
			}
		}
	}
}

func TestCountersAddSubEach(t *testing.T) {
	a := Counters{Checks: 2, Conflicts: 5, CNFClauses: 7}
	b := Counters{Checks: 1, Propagations: 3}
	a.Add(b)
	if a.Checks != 3 || a.Conflicts != 5 || a.Propagations != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
	d := a.Sub(b)
	if d.Checks != 2 || d.Propagations != 0 || d.CNFClauses != 7 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	var names []string
	a.Each(func(name string, v int64) { names = append(names, name) })
	if len(names) != 24 {
		t.Fatalf("Each visited %d fields, want 24", len(names))
	}
	if names[0] != "checks" || names[len(names)-1] != "learnts_retained" {
		t.Fatalf("Each order changed: %v", names)
	}
	if !(Counters{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 900, -4} {
		h.Observe(v)
	}
	if h.N != 6 || h.Max != 900 {
		t.Fatalf("N=%d Max=%d", h.N, h.Max)
	}
	if h.Counts[0] != 2 { // zero and negative
		t.Fatalf("bucket 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[2] != 2 || h.Counts[10] != 1 {
		t.Fatalf("buckets wrong: %v", h.Counts[:12])
	}
	out := h.Render("ms")
	if !strings.Contains(out, "<1024") || !strings.Contains(out, "#") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if (&Histogram{}).Render("") == "" {
		t.Fatal("empty render should say so")
	}
}

// BenchmarkNilSpan measures the telemetry-off fast path: every call is
// a nil-receiver method. This is the per-operation cost the <=2%
// overhead contract rests on (single-digit nanoseconds).
func BenchmarkNilSpan(b *testing.B) {
	var sp *Span
	for i := 0; i < b.N; i++ {
		c := sp.Child("x", "y")
		c.SetInt("k", 1)
		c.End()
	}
}
