package sat

// SampleStats is a point-in-time snapshot of the search internals,
// delivered through Solver.OnSample at restart boundaries and on
// Unknown exits. It is a plain value struct — the SAT core neither
// knows nor cares what the observability layer does with it — and every
// field is integral so consumers can feed gauges and NDJSON records
// without float plumbing; the two quality signals that are naturally
// fractional are carried as fixed-point ×100. The JSON tags name the
// fields of a flight artifact's sample records.
type SampleStats struct {
	// Cumulative search totals for this core (across all Solve calls in
	// an incremental session).
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	Decisions    int64 `json:"decisions"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`

	// Clause-database shape at the sample instant: total learnts and
	// the permanent/mid tiers of the LBD-tiered policy (the remainder is
	// the local reduction pool), plus problem size.
	Learnts     int `json:"learnts"`
	LearntCore  int `json:"learnt_core"`
	LearntTier2 int `json:"learnt_tier2"`
	Vars        int `json:"vars"`
	Clauses     int `json:"clauses"`

	// Search-quality signals: the current trail depth, the mean LBD of
	// the recent-learnt ring ×100 (0 when the ring is empty), and the
	// trail-size EMA at conflicts ×100 — the same signals the
	// Glucose-style restart policy reads.
	Trail         int   `json:"trail"`
	RecentLBDx100 int64 `json:"recent_lbd_x100"`
	TrailEMAx100  int64 `json:"trail_ema_x100"`
}

// Sample builds a snapshot of the search internals, the one OnSample
// receives. It scans the learnt database for the tier counts, so the
// solver calls it only when OnSample is set; a caller whose query stops
// before search uses it to report the core's state all the same.
func (s *Solver) Sample() SampleStats {
	st := SampleStats{
		Conflicts:    s.conflicts,
		Propagations: s.propagations,
		Decisions:    s.decisions,
		Restarts:     s.restarts,
		Learned:      s.learned,
		Learnts:      len(s.learnts),
		Vars:         len(s.vars) - 1,
		Clauses:      s.numClauses,
		Trail:        len(s.trail),
		TrailEMAx100: int64(s.trailEma * 100),
	}
	for _, c := range s.learnts {
		switch s.meta(c).tier {
		case tierCore:
			st.LearntCore++
		case tierTwo:
			st.LearntTier2++
		}
	}
	if s.lbdRingLen > 0 {
		st.RecentLBDx100 = s.lbdRingSum * 100 / int64(s.lbdRingLen)
	}
	return st
}

// emitSample fires the OnSample hook if one is attached.
func (s *Solver) emitSample() {
	if s.OnSample != nil {
		s.OnSample(s.Sample())
	}
}
