package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

func TestVerdictNamesExist(t *testing.T) {
	names := map[string]bool{}
	for _, e := range suite.All() {
		names[e.Name] = true
	}
	if len(verdicts) == 0 {
		t.Fatal("verdicts.txt lists no entry")
	}
	for name := range verdicts {
		if !names[name] {
			t.Errorf("verdicts.txt names %q, which is not in suite.All()", name)
		}
	}
}

func TestParseVerdictsRejectsUnknownCondition(t *testing.T) {
	if _, err := parseVerdicts("PR20186 sometimes\n"); err == nil {
		t.Fatal("an unknown condition was accepted")
	}
}

// TestWatchdogKeepsWork checks that the cancel-only watchdog leaves the
// verifier's work as it is: a deadline would turn on the conflict-budget
// escalation ladder.
func TestWatchdogKeepsWork(t *testing.T) {
	ts := suite.ParseAll()[:24]
	opts := verify.CorpusOptions{Verify: verify.Options{Widths: []int{4, 8}, MaxAssignments: 4}, Workers: 1}
	_, plain := verify.RunCorpus(context.Background(), ts, opts)
	var watched verify.CorpusStats
	guarded(time.Minute, func(ctx context.Context) *roundResult {
		_, watched = verify.RunCorpus(ctx, ts, opts)
		return nil
	})
	if watched.Counters != plain.Counters {
		t.Errorf("counters differ under the watchdog:\n%+v\n%+v", watched.Counters, plain.Counters)
	}
	if watched.Escalations != 0 || plain.Escalations != 0 {
		t.Errorf("escalations = %d guarded, %d unguarded; want 0", watched.Escalations, plain.Escalations)
	}
}

func TestSelfTimes(t *testing.T) {
	now := time.Unix(0, 0)
	tr := telemetry.NewWithClock(func() time.Time { return now })
	tick := func(ms int) { now = now.Add(time.Duration(ms) * time.Millisecond) }
	a, b := tr.NewTrack("a"), tr.NewTrack("b")

	// Track a: root [0,10) holds siblings [1,3) and [4,9); the second
	// holds a grandchild [5,6).
	root := a.Start("root", "r")
	tick(1)
	c1 := root.Child("c1", "c")
	tick(2)
	c1.End()
	tick(1)
	c2 := root.Child("c2", "c")
	tick(1)
	g := c2.Child("g", "g")
	tick(1)
	g.End()
	// Track b: a span overlapping a's in time is not a's child.
	other := b.Start("other", "r")
	tick(3)
	c2.End()
	tick(1)
	root.End()
	other.End()

	got := selfTimes(tr.Events())
	want := map[string]time.Duration{
		"r": (10 - 2 - 5 + 4) * time.Millisecond, // root's self 3 ms + other's 4 ms
		"c": (2 + 5 - 1) * time.Millisecond,
		"g": 1 * time.Millisecond,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2}
	for _, c := range []struct {
		name string
		cand []float64
		want string
	}{
		{"same", []float64{10, 10.1, 10, 9.9, 10}, "ok"},
		{"slower", []float64{12, 12.1, 12, 11.9, 12}, "regressed"},
		{"faster", []float64{8, 8.1, 8, 7.9, 8}, "ok"},
	} {
		if got := judge(base, c.cand, true, 0.1); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 10, 8, 12}
	if got := judge(noisy, []float64{11, 12, 11, 12, 11}, true, 0.1); got != "unresolved" {
		t.Errorf("noisy baseline: judge = %s, want unresolved", got)
	}
	if got := judge(noisy, []float64{4, 4.1, 4, 3.9, 4}, true, 0.1); got != "ok" {
		t.Errorf("noisy baseline, every run better: judge = %s, want ok", got)
	}
}

// benchmarkDef is the part of BENCHMARK.json the smoke test checks.
type benchmarkDef struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// run runs a workload at toy size and returns its report and the text
// it prints.
func run(t *testing.T, w *Workload, seed int64, trace bool) (*Report, string) {
	t.Helper()
	rep, err := Run(w, Config{Seed: seed, Trace: trace, Size: Toy})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("%s: %d of %d items failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Failures)
	}
	var out bytes.Buffer
	rep.WriteText(&out)
	return rep, out.String()
}

// exact reports whether a per-layer metric counts work the program does,
// which must repeat exactly for the same inputs in any order.
func exact(m Metric) bool {
	switch m.Name {
	case "presolve.discharged_share", "miniir.cost_ratio":
		return true
	}
	return m.Unit == "count" && !strings.HasPrefix(m.Name, "go.")
}

func TestSmoke(t *testing.T) {
	def := loadDef(t)
	if len(def.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, alive-perf %d", len(def.Workloads), len(Workloads))
	}
	for _, dw := range def.Workloads {
		w := Lookup(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown", dw.Name)
		}
		traced, text := run(t, w, 1, true)
		printed := map[string]string{} // metric name to "value unit"
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != w.Name {
				t.Fatalf("%s: malformed line %q", w.Name, line)
			}
			printed[f[1]] = f[2] + " " + f[3]
		}
		for _, m := range append(def.EndToEnd, def.PerLayer...) {
			if p, ok := printed[m.Name]; !ok || !strings.HasSuffix(p, " "+m.Unit) {
				t.Errorf("%s: %s is printed as %q, want a value in %s", w.Name, m.Name, p, m.Unit)
			}
		}
		if p := printed["fail_share"]; p != "0 ratio" {
			t.Errorf("%s: fail_share is %q, want 0", w.Name, p)
		}

		// The verifier workloads permute their inputs by seed, so their
		// counts must not depend on it; the optimizer's module does, so
		// its counts must repeat for the same seed.
		seed := int64(2)
		if w.Name == "optimizer" {
			seed = 1
		}
		plain, _ := run(t, w, seed, false)
		got := map[string]float64{}
		for _, m := range plain.PerLayer {
			got[m.Name] = m.Value
		}
		for _, m := range traced.PerLayer {
			if v, ok := got[m.Name]; ok && exact(m) && v != m.Value {
				t.Errorf("%s: %s = %v traced with seed 1, %v untraced with seed %d", w.Name, m.Name, m.Value, v, seed)
			}
		}
	}
}
