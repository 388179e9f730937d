package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"alive/internal/telemetry"
)

// FlightSchema versions the flight-recorder artifact layout.
//
// History: 1 — initial: one "flight" header record followed by one
// "sample" record per retained ring-buffer entry.
const FlightSchema = 1

// FlightSamples is the per-verification sample-ring capacity: enough
// to cover the last few dozen restart boundaries of a grind without
// the artifact growing past a few KiB.
const FlightSamples = 64

// FlightRecorder serializes post-mortem artifacts for hard queries:
// when a verification ends Unknown (any reason, including a memory-
// governor trip) or runs longer than Slow, the verifier hands its
// sample ring here and an NDJSON file lands in Dir. The recorder is
// safe for concurrent use by corpus workers; each artifact gets a
// process-unique sequence number.
type FlightRecorder struct {
	// Dir receives the artifacts; it is created on first write.
	Dir string
	// Slow, when positive, also triggers recording for verifications
	// whose wall time meets or exceeds it, whatever their verdict.
	Slow time.Duration

	seq atomic.Int64
}

// ShouldRecord reports whether a verification outcome trips the
// recorder: an Unknown verdict (any reason), or a wall time past Slow.
func (f *FlightRecorder) ShouldRecord(unknown bool, dur time.Duration) bool {
	if f == nil {
		return false
	}
	return unknown || (f.Slow > 0 && dur >= f.Slow)
}

// FlightHeader is the first record of an artifact: the verification's
// identity, outcome, and counter deltas. Counters is keyed by the
// telemetry snake_case names; encoding/json sorts map keys, so the
// record is deterministic.
type FlightHeader struct {
	Type             string           `json:"type"` // "flight"
	Schema           int              `json:"schema"`
	Transform        string           `json:"transform"`
	Verdict          string           `json:"verdict"`
	Reason           string           `json:"reason,omitempty"`
	Trigger          string           `json:"trigger"` // "unknown" or "slow"
	DurationUS       int64            `json:"duration_us"`
	Queries          int              `json:"queries"`
	Escalations      int              `json:"escalations"`
	GaveUpAssignment string           `json:"gave_up_assignment,omitempty"`
	GaveUpCondition  string           `json:"gave_up_condition,omitempty"`
	SpanPath         string           `json:"span_path,omitempty"`
	SamplesTotal     int64            `json:"samples_total"`
	SamplesKept      int              `json:"samples_kept"`
	Counters         map[string]int64 `json:"counters"`
}

// flightSample wraps a SolverSample with its record type tag.
type flightSample struct {
	Type string `json:"type"` // "sample"
	SolverSample
}

// Record writes one artifact and returns its path. hdr's Type, Schema,
// Counters, and sample tallies are filled in here; pass the
// verification's counter delta and the ring it filled.
func (f *FlightRecorder) Record(hdr FlightHeader, counters telemetry.Counters, ring *Ring) (string, error) {
	hdr.Type = "flight"
	hdr.Schema = FlightSchema
	hdr.Counters = make(map[string]int64, 32)
	counters.Each(func(name string, v int64) { hdr.Counters[name] = v })
	var samples []SolverSample
	if ring != nil {
		samples = ring.Samples()
		hdr.SamplesTotal = ring.Total()
		hdr.SamplesKept = len(samples)
	}

	if err := os.MkdirAll(f.Dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%06d-%s.ndjson", f.seq.Add(1), sanitizeName(hdr.Transform))
	path := filepath.Join(f.Dir, name)
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(file)
	err = enc.Encode(hdr)
	for _, s := range samples {
		if err != nil {
			break
		}
		err = enc.Encode(flightSample{Type: "sample", SolverSample: s})
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// sanitizeName maps a transform name onto a safe filename fragment.
func sanitizeName(s string) string {
	const maxLen = 80
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < maxLen; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "query"
	}
	return string(out)
}
