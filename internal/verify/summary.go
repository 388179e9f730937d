package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"alive/internal/telemetry"
)

// TransformStat is the per-transformation telemetry record: one NDJSON
// line in the machine-readable stats stream, and one row candidate for
// the human summary's slowest-transforms table.
type TransformStat struct {
	Name            string             `json:"name"`
	File            string             `json:"file,omitempty"`
	Verdict         string             `json:"verdict"`
	Reason          string             `json:"reason,omitempty"`
	DurationUS      int64              `json:"duration_us"`
	TypeAssignments int                `json:"type_assignments"`
	Queries         int                `json:"queries"`
	Escalations     int                `json:"escalations,omitempty"`
	Counters        telemetry.Counters `json:"counters"`
}

// Summary digests a corpus run for reporting: per-transform records
// plus log2 histograms of where the time and the CNF volume went.
type Summary struct {
	Stats   CorpusStats
	Records []TransformStat
	// SolveTime buckets per-transform wall time in microseconds;
	// Clauses buckets per-transform CNF clause counts. Both are log2
	// histograms, so neighbouring buckets differ by 2x.
	SolveTime telemetry.Histogram
	Clauses   telemetry.Histogram
}

// Summarize builds a Summary from a corpus run. Records keep result
// order; callers that track display names (e.g. for unnamed
// transformations) may relabel Records[i].Name and .File before
// rendering.
func Summarize(results []Result, stats CorpusStats) *Summary {
	s := &Summary{Stats: stats, Records: make([]TransformStat, len(results))}
	for i, r := range results {
		name := ""
		if r.Transform != nil {
			name = r.Transform.Name
		}
		if name == "" {
			name = fmt.Sprintf("transform#%d", i+1)
		}
		rec := TransformStat{
			Name:            name,
			Verdict:         r.Verdict.String(),
			DurationUS:      r.Duration.Microseconds(),
			TypeAssignments: r.TypeAssignments,
			Queries:         r.Queries,
			Escalations:     r.Escalations,
			Counters:        r.Counters,
		}
		if r.Verdict == Unknown && r.Reason != ReasonNone {
			rec.Reason = r.Reason.String()
		}
		s.Records[i] = rec
		s.SolveTime.Observe(rec.DurationUS)
		s.Clauses.Observe(rec.Counters.CNFClauses)
	}
	return s
}

// Slowest returns the n slowest transformations, most expensive first.
// Ties break on record order so the result is deterministic.
func (s *Summary) Slowest(n int) []TransformStat {
	idx := make([]int, len(s.Records))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Records[idx[a]].DurationUS > s.Records[idx[b]].DurationUS
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]TransformStat, n)
	for i := 0; i < n; i++ {
		out[i] = s.Records[idx[i]]
	}
	return out
}

// WriteNDJSON streams one JSON object per transformation, in input
// order — the machine-readable sibling of Render.
func (s *Summary) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range s.Records {
		if err := enc.Encode(&s.Records[i]); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the human-readable run digest: aggregate solver work,
// the topN slowest transformations, and the two histograms.
func (s *Summary) Render(w io.Writer, topN int) {
	c := s.Stats.Counters
	fmt.Fprintf(w, "== verification telemetry ==\n")
	fmt.Fprintf(w, "%d transformations in %v: %d valid, %d incorrect, %d rejected, %d unknown\n",
		s.Stats.Total, s.Stats.Duration.Round(time.Millisecond),
		s.Stats.Valid, s.Stats.Invalid, s.Stats.Rejected, s.Stats.Unknown)
	fmt.Fprintf(w, "solver: %d queries, %d CDCL runs, %d propagations, %d conflicts, %d decisions, %d restarts, %d learned clauses\n",
		s.Stats.Queries, c.CDCLRuns, c.Propagations, c.Conflicts, c.Decisions, c.Restarts, c.LearnedClauses)
	fmt.Fprintf(w, "presolve: %d folded, %d decided of %d checks\n", c.Folded, c.Decided, c.Checks)
	fmt.Fprintf(w, "encoding: %d CNF vars, %d CNF clauses, term DAG %d nodes, %d CEGIS rounds\n",
		c.CNFVars, c.CNFClauses, c.TermNodesBefore, c.CEGISRounds)
	if s.Stats.PeakHeapBytes > 0 {
		fmt.Fprintf(w, "peak live heap: %.1f MiB (sampled)\n", float64(s.Stats.PeakHeapBytes)/(1<<20))
	}

	if topN > 0 && len(s.Records) > 0 {
		fmt.Fprintf(w, "\nslowest transformations:\n")
		for i, rec := range s.Slowest(topN) {
			fmt.Fprintf(w, "  %2d. %-40s %10v  %-9s %d queries, %d conflicts\n",
				i+1, rec.Name, (time.Duration(rec.DurationUS) * time.Microsecond).Round(10*time.Microsecond),
				rec.Verdict, rec.Queries, rec.Counters.Conflicts)
		}
	}

	fmt.Fprintf(w, "\nper-transform wall time:\n%s", s.SolveTime.Render("us"))
	fmt.Fprintf(w, "\nper-transform CNF clauses:\n%s", s.Clauses.Render("clauses"))
}
