package sat

import (
	"runtime"
	"testing"
)

// TestSolveAllocations guards the core's allocation rate. Conflict
// analysis, minimization, the assumption-conflict walk, probing and
// database reduction work in solver-owned buffers, and clauses live in
// one arena, so the eleven solves of the long golden search allocate
// far less than once per conflict.
func TestSolveAllocations(t *testing.T) {
	s, sets := longSearch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := s.Conflicts()
	s.Solve()
	for _, set := range sets {
		s.Solve(set...)
	}
	runtime.ReadMemStats(&after)
	allocs, conflicts := after.Mallocs-before.Mallocs, s.Conflicts()-c0
	t.Logf("%d allocations over %d conflicts", allocs, conflicts)
	if per := float64(allocs) / float64(conflicts); per >= 0.5 {
		t.Errorf("%d allocations over %d conflicts: %.2f per conflict, want fewer than 0.5", allocs, conflicts, per)
	}
}
