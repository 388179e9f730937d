package metrics

import (
	"encoding/json"
	"testing"

	"alive/internal/sat"
)

// TestRingEviction checks oldest-first ordering across the wrap point.
func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Push(SolverSample{SampleStats: sat.SampleStats{Conflicts: int64(i)}})
	}
	got := r.Samples()
	if len(got) != 3 || r.Total() != 5 {
		t.Fatalf("held %d, Total=%d, want 3/5", len(got), r.Total())
	}
	for i, want := range []int64{3, 4, 5} {
		if got[i].Conflicts != want {
			t.Errorf("sample %d conflicts = %d, want %d", i, got[i].Conflicts, want)
		}
	}
	// A ring that never filled returns in push order.
	short := NewRing(8)
	short.Push(SolverSample{SampleStats: sat.SampleStats{Conflicts: 9}})
	if s := short.Samples(); len(s) != 1 || s[0].Conflicts != 9 {
		t.Errorf("unfilled ring samples = %+v", s)
	}
}

// TestSolverSampleJSON pins the sample record of a flight artifact
// byte for byte, every field set: names, order, and encoding.
func TestSolverSampleJSON(t *testing.T) {
	s := SolverSample{
		ElapsedUS:  1,
		Assignment: 2,
		Condition:  "poison",
		SampleStats: sat.SampleStats{
			Conflicts:     3,
			Propagations:  4,
			Decisions:     5,
			Restarts:      6,
			Learned:       7,
			Learnts:       8,
			LearntCore:    9,
			LearntTier2:   10,
			Vars:          11,
			Clauses:       12,
			Trail:         13,
			RecentLBDx100: 14,
			TrailEMAx100:  15,
		},
	}
	b, err := json.Marshal(flightSample{Type: "sample", SolverSample: s})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"type":"sample","elapsed_us":1,"assignment":2,"condition":"poison",` +
		`"conflicts":3,"propagations":4,"decisions":5,"restarts":6,"learned":7,` +
		`"learnts":8,"learnt_core":9,"learnt_tier2":10,"vars":11,"clauses":12,` +
		`"trail":13,"recent_lbd_x100":14,"trail_ema_x100":15}`
	if string(b) != want {
		t.Errorf("sample record\n got %s\nwant %s", b, want)
	}
}
