package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alive/internal/telemetry"
)

func testReport(conflicts int64, wallMS int64) *VerifyReport {
	rep := &VerifyReport{
		SchemaVersion: VerifyReportSchema,
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		NumCPU:        4,
		Widths:        []int{4, 8},
		Transforms:    237,
		Valid:         229,
		Invalid:       8,
		Queries:       508,
		WallMS:        wallMS,
	}
	rep.Counters.Conflicts = conflicts
	rep.Counters.Checks = 508
	return rep
}

func TestHistoryAppendAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "BENCH_history.ndjson")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		rec := historyRecord(testReport(int64(1000+i*10), int64(5000+i*100)), t0.Add(time.Duration(i)*time.Hour))
		if err := AppendHistory(path, rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	first := recs[0]
	if first.Schema != HistorySchema || first.Timestamp != "2026-08-01T12:00:00Z" {
		t.Fatalf("first record = %+v", first)
	}
	if first.Valid != 229 || first.Invalid != 8 || first.Queries != 508 {
		t.Fatalf("verdicts = %+v", first)
	}
	if first.Counters["conflicts"] != 1000 || first.Counters["checks"] != 508 {
		t.Fatalf("counters = %v", first.Counters)
	}
	full := 0
	(telemetry.Counters{}).Each(func(string, int64) { full++ })
	if len(first.Counters) != full {
		t.Fatalf("counter block has %d keys, want the full set of %d", len(first.Counters), full)
	}
	if recs[2].Counters["conflicts"] != 1020 {
		t.Fatalf("third record conflicts = %d", recs[2].Counters["conflicts"])
	}
}

func TestHistoryRejectsSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.ndjson")
	if err := os.WriteFile(path, []byte(`{"schema":999}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory(path); err == nil || !strings.Contains(err.Error(), "schema 999") {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
}

func TestSlope(t *testing.T) {
	cases := []struct {
		ys   []int64
		want float64
	}{
		{nil, 0},
		{[]int64{5}, 0},
		{[]int64{0, 10, 20, 30}, 10}, // perfectly linear
		{[]int64{100, 100, 100}, 0},  // flat
		{[]int64{30, 20, 10}, -10},   // shrinking
		{[]int64{0, 20, 10, 30}, 8},  // noisy growth: lsq fit of y=8x+3
	}
	for _, c := range cases {
		if got := slope(c.ys); got != c.want {
			t.Errorf("slope(%v) = %v, want %v", c.ys, got, c.want)
		}
	}
}

func TestTrendReport(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	var recs []HistoryRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, historyRecord(testReport(int64(1000+100*i), 5000), t0.Add(time.Duration(i)*time.Hour)))
	}
	out := TrendReport(recs, 0)
	if !strings.Contains(out, "last 5 history records") {
		t.Fatalf("window line missing:\n%s", out)
	}
	// conflicts grows by exactly 100/run: slope +100.0, mean 1200.
	if !strings.Contains(out, "conflicts") || !strings.Contains(out, "+100.0") {
		t.Fatalf("conflicts slope missing:\n%s", out)
	}
	if !strings.Contains(out, "+8.33%") { // 100/1200
		t.Fatalf("drift percentage missing:\n%s", out)
	}
	if !strings.Contains(out, "wall_ms (informational)") || !strings.Contains(out, "queries") {
		t.Fatalf("derived rows missing:\n%s", out)
	}

	// Windowing: the last 2 records have conflicts 1300, 1400 → slope 100,
	// mean 1350.
	out2 := TrendReport(recs, 2)
	if !strings.Contains(out2, "last 2 history records") || !strings.Contains(out2, "1350.0") {
		t.Fatalf("windowed report wrong:\n%s", out2)
	}

	if out := TrendReport(recs[:1], 0); !strings.Contains(out, "not enough history") {
		t.Fatalf("single-record report should decline:\n%s", out)
	}
}

// TestTrendCounterUnion: a counter absent from older records (added
// mid-window) must still get a row, with absent treated as zero.
func TestTrendCounterUnion(t *testing.T) {
	recs := []HistoryRecord{
		{Schema: HistorySchema, Counters: map[string]int64{"old": 10}},
		{Schema: HistorySchema, Counters: map[string]int64{"old": 10, "brand_new": 7}},
	}
	out := TrendReport(recs, 0)
	if !strings.Contains(out, "brand_new") {
		t.Fatalf("new counter missing a row:\n%s", out)
	}
}
