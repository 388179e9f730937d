package metrics

import (
	"strings"
	"sync"
	"testing"

	"alive/internal/telemetry"
)

// TestWriteTextDeterministic pins the exposition encoding: sorted by
// name, HELP/TYPE headers, cumulative power-of-two histogram buckets
// with exact integer bounds.
func TestWriteTextDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("alive_queue_depth", "Transforms not yet completed.").Set(7)
	var h telemetry.Histogram
	for _, v := range []int64{0, 1, 3, 100} {
		h.Observe(v)
	}
	reg.HistogramFunc("alive_solve_us", "Solve wall time.", func() telemetry.Histogram { return h })

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alive_queue_depth Transforms not yet completed.
# TYPE alive_queue_depth gauge
alive_queue_depth 7
# HELP alive_solve_us Solve wall time.
# TYPE alive_solve_us histogram
alive_solve_us_bucket{le="0"} 1
alive_solve_us_bucket{le="1"} 2
alive_solve_us_bucket{le="3"} 3
alive_solve_us_bucket{le="7"} 3
alive_solve_us_bucket{le="15"} 3
alive_solve_us_bucket{le="31"} 3
alive_solve_us_bucket{le="63"} 3
alive_solve_us_bucket{le="127"} 4
alive_solve_us_bucket{le="+Inf"} 4
alive_solve_us_sum 104
alive_solve_us_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("WriteText mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCountersFuncExpansion checks a collector surfaces every
// telemetry counter field as its own series.
func TestCountersFuncExpansion(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	var c telemetry.Counters
	c.Conflicts = 42
	reg.CountersFunc("alive_run", "Pipeline counter totals.", func() telemetry.Counters {
		mu.Lock()
		defer mu.Unlock()
		return c
	})
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	fields := 0
	telemetry.Counters{}.Each(func(name string, _ int64) {
		fields++
		if !strings.Contains(out, "alive_run_"+name+" ") {
			t.Errorf("missing series alive_run_%s", name)
		}
	})
	if fields < 25 {
		t.Fatalf("counter block has %d fields, expected at least 25", fields)
	}
	if !strings.Contains(out, "alive_run_conflicts 42\n") {
		t.Errorf("conflicts value not surfaced:\n%s", out)
	}
}

// TestRegistryConcurrentScrape hammers a gauge, a shared histogram,
// and a counters collector from writer goroutines while
// scrapes are in flight; run under -race this is the registry's data-
// race gate.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g", "")
	var mu sync.Mutex
	var h telemetry.Histogram
	var cnt telemetry.Counters
	reg.HistogramFunc("h", "", func() telemetry.Histogram {
		mu.Lock()
		defer mu.Unlock()
		return h
	})
	reg.CountersFunc("run", "", func() telemetry.Counters {
		mu.Lock()
		defer mu.Unlock()
		return cnt
	})
	reg.RegisterProcessMetrics("proc")

	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < iters; i++ {
				g.Set(seed + i)
				mu.Lock()
				h.Observe(seed * i % 1024)
				cnt.Propagations++
				mu.Unlock()
			}
		}(int64(w))
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := cnt.Propagations; got != 4*iters {
		t.Errorf("propagations = %d, want %d", got, 4*iters)
	}
}

// TestRegistryIdempotentAndInvalid covers re-registration and name
// validation.
func TestRegistryIdempotentAndInvalid(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("same", "first")
	b := reg.Gauge("same", "second")
	if a != b {
		t.Error("re-registering a gauge did not return the original")
	}
	for _, bad := range []string{"", "0lead", "dash-ed", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			reg.Gauge(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		reg.HistogramFunc("same", "now a histogram", func() telemetry.Histogram { return telemetry.Histogram{} })
	}()
}

// TestRingEviction checks oldest-first ordering across the wrap point.
func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Push(SolverSample{Conflicts: int64(i)})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	got := r.Samples()
	for i, want := range []int64{3, 4, 5} {
		if got[i].Conflicts != want {
			t.Errorf("sample %d conflicts = %d, want %d", i, got[i].Conflicts, want)
		}
	}
	// A ring that never filled returns in push order.
	short := NewRing(8)
	short.Push(SolverSample{Conflicts: 9})
	if s := short.Samples(); len(s) != 1 || s[0].Conflicts != 9 {
		t.Errorf("unfilled ring samples = %+v", s)
	}
}
