// Package metrics is the live-observability layer on top of
// internal/telemetry: Prometheus text-exposition writers for gauges,
// counter blocks and histograms (prometheus.go), per-query ring buffers
// of solver search snapshots (ring.go), a post-mortem flight recorder
// for hard queries (flight.go), and the HTTP debug server behind
// `alive -debug-addr` (http.go).
//
// Where internal/telemetry answers "what did this run do" after the
// fact (spans, counter totals, histograms rendered at exit), this
// package answers "what is it doing right now" and "what was it doing
// when it died". It depends only on the standard library,
// internal/telemetry and internal/sat (for the sample type), so every
// layer above the SAT core can feed it without import cycles;
// internal/sat itself stays metrics-free and is sampled through the
// sat.Solver.OnSample hook.
package metrics

import (
	"fmt"
	"io"

	"alive/internal/telemetry"
)

// The writers below emit one metric family each in the Prometheus text
// exposition format (version 0.0.4). Write errors are left to the
// caller's writer: wrap w in a bufio.Writer and check its Flush.

// WriteGauge writes one gauge.
func WriteGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// WriteCounters expands a telemetry counter block into one counter per
// field, named prefix_<field>, all with the same help text.
func WriteCounters(w io.Writer, prefix, help string, c telemetry.Counters) {
	c.Each(func(field string, v int64) {
		name := prefix + "_" + field
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	})
}

// WriteHistogram renders a telemetry power-of-two histogram as
// cumulative Prometheus buckets. telemetry bucket k holds values
// v < 2^k (bucket 0 holds v <= 0), so the inclusive upper bound is
// le = 2^k - 1; at k = 64 the shift wraps to exactly MaxUint64, which
// is the right bound for the top bucket.
func WriteHistogram(w io.Writer, name, help string, h telemetry.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	hi := 0
	for i, c := range h.Counts {
		if c != 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += h.Counts[i]
		le := "0"
		if i > 0 {
			le = fmt.Sprintf("%d", uint64(1)<<uint(i)-1)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.N)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.N)
}
