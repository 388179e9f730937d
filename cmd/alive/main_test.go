package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// aliveBin is the binary under end-to-end test, built once in TestMain.
var aliveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "alive-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	aliveBin = filepath.Join(dir, "alive")
	out, err := exec.Command("go", "build", "-o", aliveBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building alive: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// corpusFile is a real 76-transform corpus taking a few seconds — long
// enough to interrupt or kill part-way through deterministically.
func corpusFile(t *testing.T) string {
	t.Helper()
	path, err := filepath.Abs("../../internal/suite/AndOrXor.opt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// startAndSignal launches the binary, waits for the wantDone-th
// per-transform "done" line on stdout, sends sig, and returns the exit
// code, the captured output and how long the process ran after the
// signal. SIGKILL returns -1 as Go reports killed processes.
func startAndSignal(t *testing.T, sig syscall.Signal, wantDone int, args ...string) (code int, stdout, stderr string, afterSignal time.Duration) {
	t.Helper()
	cmd := exec.Command(aliveBin, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var outBuf bytes.Buffer
	sc := bufio.NewScanner(pipe)
	seen := 0
	signalled := false
	var signalledAt time.Time
	for sc.Scan() {
		line := sc.Text()
		outBuf.WriteString(line + "\n")
		if strings.Contains(line, " done (") {
			seen++
			if seen >= wantDone && !signalled {
				signalled = true
				signalledAt = time.Now()
				if err := cmd.Process.Signal(sig); err != nil {
					t.Fatalf("signalling: %v", err)
				}
			}
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("run finished after only %d done lines (wanted %d before signalling):\n%s\n%s",
			seen, wantDone, outBuf.String(), errBuf.String())
	}
	code = cmd.ProcessState.ExitCode()
	_ = err
	return code, outBuf.String(), errBuf.String(), time.Since(signalledAt)
}

// TestSIGINTGracefulShutdown: an interrupt must stop the run cleanly —
// partial verdicts streamed and summarized, partial telemetry NDJSON
// flushed, exit status 130.
func TestSIGINTGracefulShutdown(t *testing.T) {
	corpus := corpusFile(t)
	statsPath := filepath.Join(t.TempDir(), "stats.ndjson")

	code, stdout, stderr, _ := startAndSignal(t, syscall.SIGINT, 1,
		"-j", "1", "-quiet", "-stats", statsPath, corpus)

	if code != 130 {
		t.Errorf("exit code = %d, want 130\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "run interrupted") {
		t.Errorf("stderr missing the interrupt notice:\n%s", stderr)
	}
	if !strings.Contains(stdout, "76 transformations:") {
		t.Errorf("partial summary line missing:\n%s", stdout)
	}
	recs := readNDJSON(t, statsPath)
	if len(recs) != 76 {
		t.Fatalf("partial stats has %d records, want one per transform (76)", len(recs))
	}
	decided, cancelled := 0, 0
	for _, r := range recs {
		switch {
		case r["verdict"] == "valid":
			decided++
		case r["reason"] == "cancelled":
			cancelled++
		}
	}
	if decided == 0 || cancelled == 0 {
		t.Errorf("partial stats should mix decided (%d) and cancelled (%d) records", decided, cancelled)
	}
}

// TestKillAndResume is the crash-safety acceptance scenario: SIGKILL
// part-way through a journaled run, then resume — the journal restores
// the verdicts already reached, only the remainder re-verifies, and the
// final per-transform records are identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	corpus := corpusFile(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.ndjson")

	code, _, _, _ := startAndSignal(t, syscall.SIGKILL, 8,
		"-j", "1", "-quiet", "-journal", journal, corpus)
	if code == 0 {
		t.Fatal("SIGKILLed run exited 0")
	}

	refStats := filepath.Join(dir, "ref.ndjson")
	ref := exec.Command(aliveBin, "-quiet", "-stats", refStats, corpus)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	resStats := filepath.Join(dir, "resume.ndjson")
	res := exec.Command(aliveBin, "-quiet", "-resume", journal, "-stats", resStats, corpus)
	out, err := res.CombinedOutput()
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "resumed ") {
		t.Errorf("resume run did not report restored verdicts:\n%s", out)
	}

	refRecs, resRecs := readNDJSON(t, refStats), readNDJSON(t, resStats)
	if len(refRecs) != len(resRecs) {
		t.Fatalf("resume produced %d records, reference %d", len(resRecs), len(refRecs))
	}
	for i := range refRecs {
		name := refRecs[i]["name"]
		if resRecs[i]["name"] != name {
			t.Fatalf("record %d: name %v != %v", i, resRecs[i]["name"], name)
		}
		for _, key := range []string{"verdict", "queries"} {
			if fmt.Sprint(resRecs[i][key]) != fmt.Sprint(refRecs[i][key]) {
				t.Errorf("%v: resumed %s %v != reference %v", name, key, resRecs[i][key], refRecs[i][key])
			}
		}
	}
	// The journal must have saved real work: at least the verdicts
	// reached before the SIGKILL (minus at most the one in flight).
	var report struct{ n, reverified int }
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "resumed ") {
			fmt.Sscanf(line, "resumed %d verdicts from journal, re-verified %d", &report.n, &report.reverified)
		}
	}
	if report.n < 7 {
		t.Errorf("only %d verdicts survived the SIGKILL (expected ≥7 journaled before the kill)", report.n)
	}
	if report.n+report.reverified != len(refRecs) {
		t.Errorf("resumed %d + re-verified %d != %d transforms", report.n, report.reverified, len(refRecs))
	}
}

// TestMemBudgetE2E: an absurdly small heap budget must convert the run
// into structured out-of-memory Unknowns — completing with exit 3, not
// dying.
func TestMemBudgetE2E(t *testing.T) {
	corpus := corpusFile(t)
	cmd := exec.Command(aliveBin, "-quiet", "-j", "2", "-mem-budget", "1", corpus)
	out, err := cmd.CombinedOutput()
	code := cmd.ProcessState.ExitCode()
	if code != 3 {
		t.Fatalf("exit = %d (err %v), want 3 (unknown verdicts)\n%s", code, err, out)
	}
	if !strings.Contains(string(out), "out-of-memory") {
		t.Errorf("no out-of-memory verdicts reported:\n%s", out)
	}
	if !strings.Contains(string(out), "memory governor aborted") {
		t.Errorf("governor notice missing:\n%s", out)
	}
	if !strings.Contains(string(out), "76 transformations:") {
		t.Errorf("run did not complete its summary:\n%s", out)
	}
}

// inferHeavyFile writes ten copies of Shifts:shl-and-const-fold. Each
// verifies in about 0.15 s at the default widths, but its inference
// takes 1.5–2 s, so inferring all ten takes 15 s or more.
func inferHeavyFile(t *testing.T) string {
	t.Helper()
	var src strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&src, "Name: and-fold-%d\n%%s = shl %%x, C1\n%%r = and %%s, C2\n=>\n%%a = and %%x, C2 u>> C1\n%%r = shl %%a, C1\n\n", i)
	}
	path := filepath.Join(t.TempDir(), "fold.opt")
	if err := os.WriteFile(path, []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInferTotalTimeout: -total-timeout bounds -infer too. The run must
// end soon after its 3 s deadline, report the inference it cut short as
// undecided rather than as an outcome, and exit 3.
func TestInferTotalTimeout(t *testing.T) {
	path := inferHeavyFile(t)
	const deadline = 3 * time.Second
	cmd := exec.Command(aliveBin, "-infer", "-quiet", "-total-timeout", deadline.String(), path)
	start := time.Now()
	out, _ := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Errorf("exit = %d, want 3 (inference left undecided)\n%s", code, out)
	}
	if elapsed > deadline+4*time.Second {
		t.Errorf("run took %v under a %v total timeout", elapsed.Round(time.Millisecond), deadline)
	}
	if !strings.Contains(string(out), "undecided") && !strings.Contains(string(out), "could not decide") {
		t.Errorf("no inference reports what the deadline left undecided:\n%s", out)
	}
	if strings.Count(string(out), "infer: add tgt %r nuw") == 10 {
		t.Errorf("every inference ran to completion past the deadline:\n%s", out)
	}
}

// TestInferSIGINT: an interrupt once every transform is verified stops
// the inference that follows, with exit status 130.
func TestInferSIGINT(t *testing.T) {
	code, stdout, stderr, after := startAndSignal(t, syscall.SIGINT, 10, "-infer", "-quiet", inferHeavyFile(t))
	if code != 130 {
		t.Errorf("exit code = %d, want 130\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if after > 4*time.Second {
		t.Errorf("the run went on for %v after the interrupt", after.Round(time.Millisecond))
	}
	if strings.Count(stdout, "infer: add tgt %r nuw") == 10 {
		t.Errorf("every inference ran to completion after the interrupt:\n%s", stdout)
	}
}

func TestJournalResumeFlagConflict(t *testing.T) {
	cmd := exec.Command(aliveBin, "-journal", "a", "-resume", "b", "-")
	cmd.Stdin = strings.NewReader("")
	out, _ := cmd.CombinedOutput()
	if cmd.ProcessState.ExitCode() != 2 {
		t.Fatalf("exit = %d, want 2 (usage error)\n%s", cmd.ProcessState.ExitCode(), out)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"1", 1, true},
		{"512K", 512 << 10, true},
		{"512KB", 512 << 10, true},
		{"64M", 64 << 20, true},
		{"2G", 2 << 30, true},
		{"2gb", 2 << 30, true},
		{" 16 M ", 16 << 20, true},
		{"", 0, false},
		{"x", 0, false},
		{"12T", 0, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseBytes(%q) accepted", c.in)
		}
	}
}

func readNDJSON(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%s: bad NDJSON line %q: %v", path, line, err)
		}
		recs = append(recs, m)
	}
	return recs
}
