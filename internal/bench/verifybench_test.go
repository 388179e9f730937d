package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func sampleReport() *VerifyReport {
	rep := &VerifyReport{
		SchemaVersion: VerifyReportSchema,
		GoVersion:     "go0.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		NumCPU:        8,
		Widths:        []int{4, 8},
		Transforms:    237,
		Valid:         229,
		Invalid:       8,
		Queries:       508,
		Escalations:   3,
		Resumed:       237,
		WallMS:        15000,
		PeakHeapBytes: 24 << 20,
	}
	rep.Counters.Checks = 1000
	rep.Counters.CDCLRuns = 800
	rep.Counters.Propagations = 500000
	rep.Counters.Conflicts = 20000
	rep.Counters.CNFClauses = 300000
	return rep
}

func TestVerifyReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_verify.json")
	rep := sampleReport()
	if err := WriteVerifyReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVerifyReport(path)
	if err != nil {
		t.Fatal(err)
	}
	// Loading records the counter columns present in the file — one per
	// field of the counters block.
	want := 0
	rep.Counters.Each(func(string, int64) { want++ })
	if len(got.CounterKeys) != want {
		t.Fatalf("loaded %d counter keys, want %d: %v", len(got.CounterKeys), want, got.CounterKeys)
	}
	got.CounterKeys = nil
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, rep)
	}
}

func TestVerifyReportSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	rep := sampleReport()
	rep.SchemaVersion = VerifyReportSchema + 1
	if err := WriteVerifyReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadVerifyReport(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

func TestCompareVerifyReportsPass(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Counters.Propagations += cur.Counters.Propagations / 10 // +10% < 25%
	cur.WallMS *= 3                                             // informational only
	fails, notes := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "wall clock") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wall-clock note in %v", notes)
	}
}

func TestCompareVerifyReportsCounterRegression(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Counters.Conflicts = base.Counters.Conflicts * 2
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "conflicts") {
		t.Fatalf("doubled conflicts not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsImprovementIsNote(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Counters.Conflicts = base.Counters.Conflicts / 2
	fails, notes := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 0 {
		t.Fatalf("improvement flagged as failure: %v", fails)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "conflicts improved") {
			found = true
		}
	}
	if !found {
		t.Fatalf("improvement not noted: %v", notes)
	}
}

// TestCompareVerifyReportsOutcomeCounters checks the direction rule:
// an outcome counter that moves beyond the tolerance either way is a
// note saying so, never a failure, while a work counter keeps its
// growth gate.
func TestCompareVerifyReportsOutcomeCounters(t *testing.T) {
	base := sampleReport()
	base.Counters.EncodingsReused = 408
	base.Counters.ClausesSubsumed = 17019
	cur := *base
	cur.Counters.EncodingsReused = 4 * 408
	cur.Counters.ClausesSubsumed = 10836 // -36%
	fails, notes := CompareVerifyReports(base, &cur, 0.25)
	if len(fails) != 0 {
		t.Fatalf("outcome counters gated: %v", fails)
	}
	for _, want := range []string{"encodings_reused rose: 1632 from 408", "clauses_subsumed fell: 10836 from 17019"} {
		if !slices.Contains(notes, want) {
			t.Errorf("no note %q in %v", want, notes)
		}
	}

	cur.Counters.Conflicts = base.Counters.Conflicts * 13 / 10
	fails, _ = CompareVerifyReports(base, &cur, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "conflicts") {
		t.Fatalf("conflicts +30%% not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsVerdictMustMatch(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Invalid--
	cur.Valid++
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) < 2 { // both valid and invalid moved
		t.Fatalf("verdict drift not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsResumedMustMatch(t *testing.T) {
	// A resumed-count drop means verdicts stopped reaching the journal —
	// a robustness regression the perf gate must catch exactly.
	base, cur := sampleReport(), sampleReport()
	cur.Resumed -= 5
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "resumed") {
		t.Fatalf("resumed drift not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsEscalationsMustMatch(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Escalations++
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "escalations") {
		t.Fatalf("escalation drift not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsWidthsGate(t *testing.T) {
	base, cur := sampleReport(), sampleReport()
	cur.Widths = []int{4}
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "widths") {
		t.Fatalf("width mismatch not gated: %v", fails)
	}
}

func TestCompareVerifyReportsMissingCounterColumn(t *testing.T) {
	// A baseline file that predates a counter must fail the gate loudly:
	// the missing column would otherwise unmarshal as zero and compare
	// as an "improvement".
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_verify.json")
	if err := WriteVerifyReport(path, sampleReport()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(data), "\"probe_units\": 0,\n", "", 1)
	if stripped == string(data) {
		t.Fatal("test setup: probe_units column not found in the written report")
	}
	if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadVerifyReport(path)
	if err != nil {
		t.Fatal(err)
	}
	fails, _ := CompareVerifyReports(base, sampleReport(), 0.25)
	found := false
	for _, f := range fails {
		if strings.Contains(f, "probe_units") && strings.Contains(f, "missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing counter column not flagged: %v", fails)
	}
}

func TestCompareVerifyReportsSchema4Columns(t *testing.T) {
	// The schema-4 counters that survive — the LBD-tiered clause
	// database — are required columns like any other: a baseline
	// missing one must fail the gate, not silently compare the zero
	// value.
	for _, col := range []string{"lbd_core", "db_reductions"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "BENCH_verify.json")
		if err := WriteVerifyReport(path, sampleReport()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		stripped := strings.Replace(string(data), "\""+col+"\": 0,\n", "", 1)
		if stripped == string(data) {
			t.Fatalf("test setup: %s column not found in the written report", col)
		}
		if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
			t.Fatal(err)
		}
		base, err := LoadVerifyReport(path)
		if err != nil {
			t.Fatal(err)
		}
		fails, _ := CompareVerifyReports(base, sampleReport(), 0.25)
		found := false
		for _, f := range fails {
			if strings.Contains(f, col) && strings.Contains(f, "missing") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: missing counter column not flagged: %v", col, fails)
		}
	}
}

func TestCompareVerifyReportsNearZeroSlack(t *testing.T) {
	// A counter going 0 -> 10 must not fail: the absolute slack absorbs
	// noise-scale motion near zero.
	base, cur := sampleReport(), sampleReport()
	base.Counters.Restarts = 0
	cur.Counters.Restarts = 10
	fails, _ := CompareVerifyReports(base, cur, 0.25)
	if len(fails) != 0 {
		t.Fatalf("near-zero counter motion flagged: %v", fails)
	}
}
