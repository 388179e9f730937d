package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"alive/internal/telemetry"
)

// WriteText encodes every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name so output is
// deterministic for golden tests and diffable scrapes. Function-backed
// metrics and counter collectors are evaluated here, outside the
// registry lock.
func (r *Registry) WriteText(w io.Writer) error {
	ms, cs := r.snapshot()

	// Expand counter collectors into plain series and merge them into
	// the sorted stream. Collector series use the collector's help text.
	type flat struct {
		name string
		help string
		kind metricKind
		val  int64
		hist telemetry.Histogram
	}
	var rows []flat
	for _, m := range ms {
		f := flat{name: m.name, help: m.help, kind: m.kind}
		switch {
		case m.gauge != nil:
			f.val = m.gauge.Value()
		case m.gaugeFn != nil:
			f.val = m.gaugeFn()
		case m.histFn != nil:
			f.hist = m.histFn()
		}
		rows = append(rows, f)
	}
	for _, c := range cs {
		snap := c.fn()
		snap.Each(func(name string, v int64) {
			rows = append(rows, flat{
				name: c.prefix + "_" + name,
				help: c.help,
				kind: kindCounter,
				val:  v,
			})
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range rows {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		switch f.kind {
		case kindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", f.name, f.name, f.val)
		case kindCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", f.name, f.name, f.val)
		case kindHistogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", f.name)
			writeHistogram(bw, f.name, f.hist)
		}
	}
	return bw.Flush()
}

// writeHistogram renders a telemetry power-of-two histogram as
// cumulative Prometheus buckets. telemetry bucket k holds values
// v < 2^k (bucket 0 holds v <= 0), so the inclusive upper bound is
// le = 2^k - 1; at k = 64 the shift wraps to exactly MaxUint64, which
// is the right bound for the top bucket.
func writeHistogram(w io.Writer, name string, h telemetry.Histogram) {
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

// escapeHelp escapes backslashes and newlines per the exposition
// format.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
