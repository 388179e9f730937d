package perf

import (
	"fmt"
	"io"
	"strconv"
)

// WriteText prints every metric of r, one `workload metric value unit`
// line each, with the sample counts and the share of attempted items that
// failed.
func (r *Report) WriteText(w io.Writer) {
	line := func(m Metric) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	for _, ms := range [][]Metric{r.EndToEnd, r.Samples} {
		for _, m := range ms {
			line(m)
		}
	}
	line(Metric{"fail_share", "ratio", float64(r.Failed) / float64(max(r.Attempted, 1))})
	for _, m := range r.PerLayer {
		line(m)
	}
}

// Result is the JSON object a run ends its output with.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Value is a metric in a Result.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summarize builds the Result of a run: its per-layer metrics when traced,
// its end-to-end metrics otherwise. When the run covers several workloads
// each metric name is prefixed with `<workload>.`.
func Summarize(reps []*Report, traced bool) Result {
	res := Result{Metrics: map[string]Value{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.PerLayer
		}
		for _, m := range ms {
			name := m.Name
			if len(reps) > 1 {
				name = r.Workload + "." + name
			}
			res.Metrics[name] = Value{m.Value, m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	return res
}
