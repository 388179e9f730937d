package verify

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alive/internal/metrics"
	"alive/internal/parser"
	"alive/internal/telemetry"
)

// readFlight parses one flight artifact into its header and sample
// records.
func readFlight(t *testing.T, path string) (metrics.FlightHeader, []metrics.SolverSample) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open artifact: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("empty artifact")
	}
	var hdr metrics.FlightHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	var samples []metrics.SolverSample
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
			metrics.SolverSample
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("sample: %v", err)
		}
		if rec.Type != "sample" {
			t.Fatalf("record type = %q, want sample", rec.Type)
		}
		samples = append(samples, rec.SolverSample)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return hdr, samples
}

// TestFlightArtifactOnDeadline is the acceptance path: a verification
// that dies on its deadline must leave an NDJSON artifact whose header
// names the give-up point and which retains at least one solver
// sample from the ring.
func TestFlightArtifactOnDeadline(t *testing.T) {
	tr := parseOne(t, hardTransform)
	// Escalate the deadline until the artifact has at least one solver
	// sample: under -race the pipeline slows enough that 150ms can
	// expire before CDCL reaches its first sample point.
	var names []string
	for _, timeout := range []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond} {
		dir := t.TempDir()
		opts := hardOpts
		opts.Timeout = timeout
		opts.Flight = &metrics.FlightRecorder{Dir: dir}
		res := VerifyContext(context.Background(), tr, opts)
		if res.Verdict != Unknown || res.Reason != ReasonDeadline {
			t.Fatalf("got %v/%v, want unknown/deadline", res.Verdict, res.Reason)
		}
		if res.Err != nil {
			t.Fatalf("artifact write failed: %v", res.Err)
		}
		var err error
		names, err = filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
		if err != nil || len(names) != 1 {
			t.Fatalf("artifacts = %v (err %v), want exactly one", names, err)
		}
		if _, samples := readFlight(t, names[0]); len(samples) > 0 {
			break
		}
	}
	if base := filepath.Base(names[0]); !strings.HasPrefix(base, "flight-000001-hard") {
		t.Fatalf("artifact name = %q", base)
	}

	hdr, samples := readFlight(t, names[0])
	if hdr.Type != "flight" || hdr.Schema != metrics.FlightSchema {
		t.Fatalf("header type/schema = %q/%d", hdr.Type, hdr.Schema)
	}
	if hdr.Transform != "hard" || hdr.Verdict != "unknown" || hdr.Reason != "deadline" || hdr.Trigger != "unknown" {
		t.Fatalf("header identity = %+v", hdr)
	}
	if hdr.DurationUS <= 0 {
		t.Fatalf("duration_us = %d", hdr.DurationUS)
	}
	if !strings.HasPrefix(hdr.SpanPath, "transform/assignment[") || !strings.Contains(hdr.SpanPath, "/check:") {
		t.Fatalf("span_path = %q, want transform/assignment[i]/check:cond", hdr.SpanPath)
	}
	if hdr.GaveUpAssignment == "" || hdr.GaveUpCondition == "" {
		t.Fatalf("give-up point missing: %+v", hdr)
	}
	full := 0
	(telemetry.Counters{}).Each(func(string, int64) { full++ })
	if len(hdr.Counters) != full {
		t.Fatalf("counters in header = %d, want the full block of %d", len(hdr.Counters), full)
	}
	if len(samples) == 0 {
		t.Fatal("no solver samples retained — the OnSample hook never fired")
	}
	if hdr.SamplesKept != len(samples) || hdr.SamplesTotal < int64(len(samples)) {
		t.Fatalf("sample tallies kept=%d total=%d, files has %d", hdr.SamplesKept, hdr.SamplesTotal, len(samples))
	}
	last := samples[len(samples)-1]
	if last.ElapsedUS <= 0 {
		t.Fatalf("last sample elapsed_us = %d", last.ElapsedUS)
	}
	if last.Vars == 0 || last.Clauses == 0 {
		t.Fatalf("last sample has no formula shape: %+v", last)
	}
	if last.Condition == "" {
		t.Fatal("sample condition not recorded")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].ElapsedUS < samples[i-1].ElapsedUS {
			t.Fatalf("samples out of order at %d: %d < %d", i, samples[i].ElapsedUS, samples[i-1].ElapsedUS)
		}
	}
}

// TestFlightSlowTrigger records a perfectly healthy verification when
// the Slow threshold is set to zero-ish, and stays quiet when the
// recorder is absent.
func TestFlightSlowTrigger(t *testing.T) {
	dir := t.TempDir()
	tr := parseOne(t, "%r = add %x, 0\n=>\n%r = %x\n")
	res := VerifyContext(context.Background(), tr, Options{
		Widths: []int{8},
		Flight: &metrics.FlightRecorder{Dir: dir, Slow: time.Nanosecond},
	})
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
	if len(names) != 1 {
		t.Fatalf("artifacts = %v, want one slow-trigger artifact", names)
	}
	hdr, _ := readFlight(t, names[0])
	if hdr.Trigger != "slow" || hdr.Verdict != "valid" {
		t.Fatalf("header = %+v, want slow/valid", hdr)
	}

	// Valid verdict, no Slow threshold: no artifact.
	quiet := t.TempDir()
	VerifyContext(context.Background(), tr, Options{
		Widths: []int{8},
		Flight: &metrics.FlightRecorder{Dir: quiet},
	})
	if names, _ := filepath.Glob(filepath.Join(quiet, "flight-*.ndjson")); len(names) != 0 {
		t.Fatalf("unexpected artifacts %v for a valid verdict", names)
	}
}

// TestSolverGaugesLive checks that a verification with a registry set
// publishes the solver gauge set and that a real search moves them.
func TestSolverGaugesLive(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := parseOne(t, hardTransform)
	// Escalate the deadline until the search has provably started:
	// under -race the pipeline slows enough that 150ms can expire
	// before CDCL reaches its first restart-boundary sample.
	for _, timeout := range []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond} {
		opts := hardOpts
		opts.Timeout = timeout
		opts.Metrics = reg
		res := VerifyContext(context.Background(), tr, opts)
		if res.Verdict != Unknown {
			t.Fatalf("verdict = %v, want unknown", res.Verdict)
		}
		if reg.Gauge("alive_solver_propagations", "").Value() != 0 {
			break
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	for _, name := range []string{
		"alive_solver_conflicts", "alive_solver_propagations", "alive_solver_decisions",
		"alive_solver_restarts", "alive_solver_learnts", "alive_solver_learnt_core",
		"alive_solver_learnt_tier2", "alive_solver_trail_depth",
		"alive_solver_recent_lbd_x100", "alive_solver_trail_ema_x100",
	} {
		if !strings.Contains(text, name+" ") {
			t.Fatalf("series %s missing from scrape:\n%s", name, text)
		}
	}
	// The deadline fired mid-search, so the last sample must show work.
	if g := reg.Gauge("alive_solver_propagations", ""); g.Value() == 0 {
		t.Fatal("propagation gauge never moved")
	}
}

// TestLiveCorpusStatus drives a small corpus with a Live block attached
// and checks the snapshot tallies, the registered series, and the
// ≥30-series floor of the /metrics surface.
func TestLiveCorpusStatus(t *testing.T) {
	src := `
Name: ok1
%r = add %x, 0
=>
%r = %x

Name: ok2
%r = and %x, %x
=>
%r = %x

Name: bad
%r = add %x, 1
=>
%r = %x
`
	ts, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse corpus: %v", err)
	}
	live := NewLive()
	reg := metrics.NewRegistry()
	live.Register(reg)

	results, stats := RunCorpus(context.Background(), ts, CorpusOptions{
		Verify:  Options{Widths: []int{4}},
		Workers: 2,
		Live:    live,
	})
	if len(results) != 3 || stats.Valid != 2 || stats.Invalid != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	snap := live.Snapshot()
	if snap.Total != 3 || snap.Completed != 3 || snap.QueueDepth != 0 {
		t.Fatalf("snapshot progress = %+v", snap)
	}
	if snap.Valid != 2 || snap.Invalid != 1 || snap.Unknown != 0 {
		t.Fatalf("snapshot verdicts = %+v", snap)
	}
	if snap.Workers != 2 || len(snap.InFlight) != 0 {
		t.Fatalf("snapshot workers = %+v", snap)
	}
	if snap.Queries == 0 {
		t.Fatal("no queries tallied")
	}
	if b, err := json.Marshal(snap); err != nil || !strings.Contains(string(b), `"queue_depth":0`) {
		t.Fatalf("snapshot JSON = %s (%v)", b, err)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	series := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 30 {
		t.Fatalf("scrape has %d series, want >= 30:\n%s", series, text)
	}
	for _, want := range []string{
		"alive_corpus_total 3", "alive_corpus_completed 3", "alive_corpus_valid 2",
		"alive_corpus_invalid 1", "alive_corpus_queue_depth 0", "alive_corpus_workers 2",
		"alive_checks", "alive_verify_us_count 3", "alive_process_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestLiveDispatchFinish exercises the in-flight map directly.
func TestLiveDispatchFinish(t *testing.T) {
	l := NewLive()
	l.begin(5, 2, 1)
	l.dispatch(0, "alpha")
	l.dispatch(1, "")
	snap := l.Snapshot()
	if len(snap.InFlight) != 2 {
		t.Fatalf("in-flight = %+v", snap.InFlight)
	}
	if snap.InFlight[0].Worker != 0 || snap.InFlight[0].Transform != "alpha" {
		t.Fatalf("worker 0 = %+v", snap.InFlight[0])
	}
	if snap.InFlight[1].Transform != "(unnamed)" {
		t.Fatalf("worker 1 = %+v", snap.InFlight[1])
	}
	if snap.Completed != 1 || snap.Resumed != 1 || snap.QueueDepth != 4 {
		t.Fatalf("begin tallies = %+v", snap)
	}
	l.finish(0, Result{Verdict: Valid, Queries: 3, Duration: time.Millisecond})
	snap = l.Snapshot()
	if len(snap.InFlight) != 1 || snap.Valid != 1 || snap.Completed != 2 || snap.Queries != 3 {
		t.Fatalf("after finish = %+v", snap)
	}
}
