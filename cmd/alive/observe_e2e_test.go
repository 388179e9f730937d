package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// hardOpt needs a 32-bit sdiv equivalence proof — far beyond a
// millisecond-scale deadline, so it forces a deadline Unknown.
const hardOpt = `
Name: hard
Pre: C2 % (1<<C1) == 0 && C1 u< width(%X)-1
%s = shl nsw %X, C1
%r = sdiv %s, C2
=>
%r = sdiv %X, C2/(1<<C1)
`

// TestDebugServerE2E scrapes the observability endpoints of a live run:
// -debug-addr must print the bound address, /metrics must expose at
// least 30 series mid-run, and /debug/status must report the corpus
// shape — all without disturbing the run's verdicts or exit status.
func TestDebugServerE2E(t *testing.T) {
	corpus := corpusFile(t)
	cmd := exec.Command(aliveBin, "-j", "1", "-quiet", "-debug-addr", "127.0.0.1:0", corpus)
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listening line precedes the corpus run, so scraping here is
	// guaranteed to land mid-run.
	const marker = "debug server listening on "
	sc := bufio.NewScanner(errPipe)
	base := ""
	var errLines []string
	for sc.Scan() {
		line := sc.Text()
		errLines = append(errLines, line)
		if i := strings.Index(line, marker); i >= 0 {
			base = line[i+len(marker):]
			break
		}
	}
	if base == "" {
		t.Fatalf("no listening line on stderr:\n%s", strings.Join(errLines, "\n"))
	}
	go io.Copy(io.Discard, errPipe) // keep draining so the child never blocks

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metricsText := get("/metrics")
	series := 0
	for _, line := range strings.Split(metricsText, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 30 {
		t.Errorf("/metrics has %d series mid-run, want >= 30:\n%s", series, metricsText)
	}
	for _, want := range []string{"alive_corpus_total ", "alive_checks ", "alive_process_heap_bytes "} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The server comes up before RunCorpus records the run shape, so
	// poll until the status reflects it (or the run ends, which also
	// leaves total set).
	var status struct {
		Total   int `json:"total"`
		Workers int `json:"workers"`
	}
	for i := 0; i < 200 && status.Total == 0; i++ {
		if err := json.Unmarshal([]byte(get("/debug/status")), &status); err != nil {
			t.Fatalf("/debug/status: %v", err)
		}
		if status.Total == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if status.Total != 76 || status.Workers != 1 {
		t.Errorf("/debug/status = %+v, want total 76, workers 1", status)
	}
	if text := get("/metrics"); !strings.Contains(text, "alive_corpus_total 76") {
		t.Errorf("/metrics never reported the corpus size:\n%s", text)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("run failed: %v\n%s", err, outBuf.String())
	}
	if !strings.Contains(outBuf.String(), "76 transformations:") {
		t.Errorf("summary line missing:\n%s", outBuf.String())
	}
}

// TestFlightRecorderE2E forces a deadline Unknown and checks the
// post-mortem artifact: a flight header naming the give-up point plus
// at least one retained solver sample.
func TestFlightRecorderE2E(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(aliveBin, "-quiet", "-widths", "32", "-divmul-max", "0",
		"-timeout", "150ms", "-flight-dir", dir, "-")
	cmd.Stdin = strings.NewReader(hardOpt)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("exit = %d, want 3 (unknown)\n%s", code, out)
	}
	if !strings.Contains(string(out), "deadline") {
		t.Errorf("verdict line missing the deadline reason:\n%s", out)
	}

	names, err := filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
	if err != nil || len(names) != 1 {
		t.Fatalf("flight artifacts = %v (err %v), want exactly one", names, err)
	}
	recs := readNDJSON(t, names[0])
	if len(recs) < 2 {
		t.Fatalf("artifact has %d records, want a header plus >= 1 sample", len(recs))
	}
	hdr := recs[0]
	if hdr["type"] != "flight" || hdr["verdict"] != "unknown" || hdr["reason"] != "deadline" || hdr["trigger"] != "unknown" {
		t.Errorf("header = %v", hdr)
	}
	if hdr["transform"] != "hard" || hdr["span_path"] == "" {
		t.Errorf("header identity = %v", hdr)
	}
	for _, rec := range recs[1:] {
		if rec["type"] != "sample" {
			t.Fatalf("record type = %v, want sample", rec["type"])
		}
	}
}

// TestTraceStreamSIGINT: an interrupted -trace run must still leave a
// loadable Chrome trace — events stream to disk as spans close and the
// graceful shutdown closes the JSON array.
func TestTraceStreamSIGINT(t *testing.T) {
	corpus := corpusFile(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr, _ := startAndSignal(t, syscall.SIGINT, 1,
		"-j", "1", "-quiet", "-trace", tracePath, corpus)
	if code != 130 {
		t.Errorf("exit = %d, want 130\n%s", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("interrupted trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	cats := map[string]bool{}
	for _, ev := range events {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
	}
	if !names["process_name"] || !names["thread_name"] {
		t.Errorf("trace missing metadata events; got names %v", names)
	}
	if !cats["transform"] {
		t.Errorf("trace has no transform spans; got categories %v", cats)
	}
}
