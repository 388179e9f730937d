package verify

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"alive/internal/ir"
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
	// Escalate the deadline until the artifact's last solver sample
	// shows a loaded core: under -race the pipeline slows enough that
	// 150ms can expire in bit-blasting, whose stopped exit samples a
	// core that is still empty.
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
		if _, samples := readFlight(t, names[0]); len(samples) > 0 && samples[len(samples)-1].Vars > 0 {
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

// scrape returns one /metrics body of live.
func scrape(t *testing.T, live *Live) string {
	t.Helper()
	var buf bytes.Buffer
	if err := live.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.String()
}

// TestSolverGaugesLive checks that a corpus run with a Live record
// publishes the solver gauge set and that a real search moves them.
func TestSolverGaugesLive(t *testing.T) {
	live := NewLive()
	ts := []*ir.Transform{parseOne(t, hardTransform)}
	const idle = "\nalive_solver_propagations 0\n"
	var text string
	// Escalate the deadline until the search has provably started:
	// under -race the pipeline slows enough that 150ms can expire
	// before CDCL reaches its first restart-boundary sample.
	for _, timeout := range []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond} {
		opts := hardOpts
		opts.Timeout = timeout
		results, _ := RunCorpus(context.Background(), ts, CorpusOptions{Verify: opts, Workers: 1, Live: live})
		if results[0].Verdict != Unknown {
			t.Fatalf("verdict = %v, want unknown", results[0].Verdict)
		}
		if text = scrape(t, live); !strings.Contains(text, idle) {
			break
		}
	}
	for _, name := range []string{
		"alive_solver_conflicts", "alive_solver_propagations", "alive_solver_decisions",
		"alive_solver_restarts", "alive_solver_learnts", "alive_solver_learnt_core",
		"alive_solver_learnt_tier2", "alive_solver_trail_depth",
		"alive_solver_recent_lbd_x100", "alive_solver_trail_ema_x100",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Fatalf("series %s missing from scrape:\n%s", name, text)
		}
	}
	// The deadline fired mid-search, so the last sample must show work.
	if strings.Contains(text, idle) {
		t.Fatal("propagation gauge never moved")
	}
}

// metricsSeries is every series name a /metrics scrape carries once a
// run has started, sorted: the 12 corpus gauges, the pipeline counter
// block, the 2 process gauges, the 10 solver gauges, and the
// verification-time histogram's bucket/count/sum lines.
var metricsSeries = []string{
	"alive_assumption_lits", "alive_cdcl_runs", "alive_cegis_rounds", "alive_checks",
	"alive_clauses_blocked", "alive_clauses_strengthened", "alive_clauses_subsumed",
	"alive_cnf_clauses", "alive_cnf_vars", "alive_conflicts",
	"alive_corpus_completed", "alive_corpus_escalations", "alive_corpus_in_flight",
	"alive_corpus_invalid", "alive_corpus_queries", "alive_corpus_queue_depth",
	"alive_corpus_rejected", "alive_corpus_resumed", "alive_corpus_total",
	"alive_corpus_unknown", "alive_corpus_valid", "alive_corpus_workers",
	"alive_db_reductions", "alive_decided", "alive_decisions", "alive_encodings_reused",
	"alive_folded", "alive_incremental_solves", "alive_lbd_core", "alive_learned_clauses",
	"alive_learnts_retained", "alive_probe_units",
	"alive_process_goroutines", "alive_process_heap_bytes",
	"alive_propagations", "alive_restarts",
	"alive_solver_conflicts", "alive_solver_decisions", "alive_solver_learnt_core",
	"alive_solver_learnt_tier2", "alive_solver_learnts", "alive_solver_propagations",
	"alive_solver_recent_lbd_x100", "alive_solver_restarts", "alive_solver_trail_depth",
	"alive_solver_trail_ema_x100",
	"alive_term_nodes_before", "alive_vars_eliminated",
	"alive_verify_us_bucket", "alive_verify_us_count", "alive_verify_us_sum",
}

// seriesNames returns the sorted, distinct series names of a scrape,
// labels stripped, and checks each family's TYPE line: the histogram
// alive_verify_us, gauges under alive_corpus_, alive_solver_ and
// alive_process_, and counters for the rest.
func seriesNames(t *testing.T, text string) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			want := "counter"
			switch {
			case f[2] == "alive_verify_us":
				want = "histogram"
			case strings.HasPrefix(f[2], "alive_corpus_"), strings.HasPrefix(f[2], "alive_solver_"),
				strings.HasPrefix(f[2], "alive_process_"):
				want = "gauge"
			}
			if f[3] != want {
				t.Errorf("%s has TYPE %s, want %s", f[2], f[3], want)
			}
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestLiveCorpusStatus drives a small corpus with a Live block attached
// and checks the snapshot tallies and the full series list of the
// /metrics surface.
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

	text := scrape(t, live)
	if got := seriesNames(t, text); !slices.Equal(got, metricsSeries) {
		t.Fatalf("scrape series = %q\nwant %q", got, metricsSeries)
	}
	for _, want := range []string{
		"alive_corpus_total 3\n", "alive_corpus_completed 3\n", "alive_corpus_valid 2\n",
		"alive_corpus_invalid 1\n", "alive_corpus_queue_depth 0\n", "alive_corpus_workers 2\n",
		"alive_verify_us_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestLiveDispatchFinish exercises the in-flight map and the tallies
// directly.
func TestLiveDispatchFinish(t *testing.T) {
	l := NewLive()
	l.begin(5, 2)
	l.resume(Result{Verdict: Invalid, Queries: 2, Resumed: true})
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
	if snap.Completed != 1 || snap.Resumed != 1 || snap.QueueDepth != 4 || snap.Invalid != 1 {
		t.Fatalf("tallies after resume = %+v", snap)
	}
	l.finish(0, Result{Verdict: Valid, Queries: 3, Duration: time.Millisecond})
	snap = l.Snapshot()
	if len(snap.InFlight) != 1 || snap.Valid != 1 || snap.Completed != 2 || snap.Queries != 5 {
		t.Fatalf("after finish = %+v", snap)
	}
}

// TestLiveConcurrentScrape scrapes WriteMetrics and Snapshot while a
// 2-worker run folds results and solver samples in; under -race it is
// the data-race gate of the Live record. One worker grinds on the hard
// transform until its deadline while the other takes the easy ones.
func TestLiveConcurrentScrape(t *testing.T) {
	ts := []*ir.Transform{parseNamed(t, "hard", hardTransform)}
	for i := 0; i < 12; i++ {
		ts = append(ts, simpleValid(t, fmt.Sprintf("v%d", i)))
	}
	opts := hardOpts
	opts.Timeout = 200 * time.Millisecond
	live := NewLive()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := live.WriteMetrics(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				live.Snapshot()
			}
		}()
	}
	_, stats := RunCorpus(context.Background(), ts, CorpusOptions{Verify: opts, Workers: 2, Live: live})
	close(stop)
	wg.Wait()
	if stats.Valid != len(ts)-1 || stats.Unknown != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	text := scrape(t, live)
	for _, want := range []string{
		fmt.Sprintf("alive_corpus_completed %d\n", len(ts)),
		fmt.Sprintf("alive_corpus_valid %d\n", len(ts)-1),
		fmt.Sprintf("alive_verify_us_count %d\n", len(ts)),
		fmt.Sprintf("alive_checks %d\n", stats.Counters.Checks),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}
