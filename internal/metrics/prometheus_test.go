package metrics

import (
	"strings"
	"testing"

	"alive/internal/telemetry"
)

// TestWriteTextDeterministic pins the exposition encoding: HELP/TYPE
// headers, cumulative power-of-two histogram buckets with exact
// integer bounds.
func TestWriteTextDeterministic(t *testing.T) {
	var h telemetry.Histogram
	for _, v := range []int64{0, 1, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	WriteGauge(&sb, "alive_queue_depth", "Transforms not yet completed.", 7)
	WriteHistogram(&sb, "alive_solve_us", "Solve wall time.", h)

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
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCountersFuncExpansion checks WriteCounters surfaces every
// telemetry counter field as its own series.
func TestCountersFuncExpansion(t *testing.T) {
	var c telemetry.Counters
	c.Conflicts = 42
	var sb strings.Builder
	WriteCounters(&sb, "alive_run", "Pipeline counter totals.", c)
	out := sb.String()
	fields := 0
	telemetry.Counters{}.Each(func(name string, _ int64) {
		fields++
		if !strings.Contains(out, "alive_run_"+name+" ") {
			t.Errorf("missing series alive_run_%s", name)
		}
	})
	if fields < 24 {
		t.Fatalf("counter block has %d fields, expected at least 24", fields)
	}
	if !strings.Contains(out, "alive_run_conflicts 42\n") {
		t.Errorf("conflicts value not surfaced:\n%s", out)
	}
}
