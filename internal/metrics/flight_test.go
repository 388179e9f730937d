package metrics

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alive/internal/sat"
	"alive/internal/telemetry"
)

func TestFlightRecorderArtifact(t *testing.T) {
	dir := t.TempDir()
	fr := &FlightRecorder{Dir: dir}

	ring := NewRing(4)
	for i := 1; i <= 6; i++ {
		ring.Push(SolverSample{
			Condition:   "value",
			SampleStats: sat.SampleStats{Conflicts: int64(i * 100), Trail: i},
		})
	}
	var counters telemetry.Counters
	counters.Conflicts = 600
	counters.AssumptionLits = 3

	path, err := fr.Record(FlightHeader{
		Transform:        "a%b => weird/name",
		Verdict:          "unknown",
		Reason:           "deadline",
		Trigger:          "unknown",
		DurationUS:       1234,
		Queries:          2,
		GaveUpAssignment: "i8 i8",
		GaveUpCondition:  "value",
		SpanPath:         "transform/assignment[0]/check:value",
	}, counters, ring)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("artifact outside dir: %s", path)
	}
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "flight-000001-") || !strings.HasSuffix(base, ".ndjson") {
		t.Errorf("unexpected artifact name %q", base)
	}
	if strings.ContainsAny(base, "%/ ") {
		t.Errorf("unsanitized artifact name %q", base)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, m)
	}
	if len(recs) != 5 { // header + 4 retained samples
		t.Fatalf("artifact has %d records, want 5", len(recs))
	}
	hdr := recs[0]
	if hdr["type"] != "flight" || hdr["schema"] != float64(FlightSchema) {
		t.Errorf("bad header tags: %v", hdr)
	}
	if hdr["reason"] != "deadline" || hdr["samples_total"] != float64(6) || hdr["samples_kept"] != float64(4) {
		t.Errorf("bad header body: %v", hdr)
	}
	cm, ok := hdr["counters"].(map[string]any)
	if !ok || cm["conflicts"] != float64(600) || cm["assumption_lits"] != float64(3) {
		t.Errorf("bad counters map: %v", hdr["counters"])
	}
	// Samples are oldest-first: ring kept 300..600.
	for i, want := range []float64{300, 400, 500, 600} {
		s := recs[i+1]
		if s["type"] != "sample" || s["conflicts"] != want || s["condition"] != "value" {
			t.Errorf("sample %d = %v, want conflicts %v", i, s, want)
		}
	}

	// Sequence numbers advance, even for a nameless query.
	path2, err := fr.Record(FlightHeader{Transform: ""}, telemetry.Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path2), "flight-000002-query") {
		t.Errorf("second artifact name %q", filepath.Base(path2))
	}
}

func TestFlightShouldRecord(t *testing.T) {
	var nilFR *FlightRecorder
	if nilFR.ShouldRecord(true, time.Hour) {
		t.Error("nil recorder must never record")
	}
	fr := &FlightRecorder{Dir: "unused"}
	if !fr.ShouldRecord(true, 0) {
		t.Error("unknown verdict must record")
	}
	if fr.ShouldRecord(false, time.Hour) {
		t.Error("no Slow threshold set: fast path must not record")
	}
	fr.Slow = time.Second
	if !fr.ShouldRecord(false, 2*time.Second) || fr.ShouldRecord(false, time.Millisecond) {
		t.Error("Slow threshold misapplied")
	}
}
