package analysis

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseSrc builds a single-file Unit from source text.
func parseSrc(t *testing.T, importPath, src string) *Unit {
	t.Helper()
	u := &Unit{ImportPath: importPath, Fset: token.NewFileSet()}
	f, err := parser.ParseFile(u.Fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u.Files = append(u.Files, f)
	return u
}

// messages flattens diagnostics to "<analyzer>@<line>" for compact
// comparison.
func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+"@"+itoa(d.Pos.Line))
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func wantDiags(t *testing.T, u *Unit, want ...string) {
	t.Helper()
	got := messages(Run(u))
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
}

func TestStopFlagPollFlagsBareLoop(t *testing.T) {
	u := parseSrc(t, "alive/internal/sat", `package sat
func spin() {
	for {
		work()
	}
}
`)
	wantDiags(t, u, "stopflagpoll@3")
}

func TestStopFlagPollFlagsCondOnlyLoop(t *testing.T) {
	u := parseSrc(t, "alive/internal/cnf", `package cnf
func drain(q []int) {
	for len(q) > 0 {
		q = q[1:]
	}
}
`)
	wantDiags(t, u, "stopflagpoll@3")
}

func TestStopFlagPollAcceptsPolls(t *testing.T) {
	u := parseSrc(t, "alive/internal/sat", `package sat
func a(s *Solver) {
	for {
		if s.Stop.Stopped() {
			return
		}
	}
}
func b(p *prep) {
	for !p.halted() {
		work()
	}
}
func c() {
	for {
		if halted() {
			return
		}
	}
}
func d() {
	for {
		if err := faultinject.Fire(site); err != nil {
			return
		}
	}
}
`)
	wantDiags(t, u)
}

func TestStopFlagPollAcceptsBoundedAnnotation(t *testing.T) {
	u := parseSrc(t, "alive/internal/bitblast", `package bitblast
func sift(i int) {
	//alive:bounded — heap sift
	for i > 0 {
		i /= 2
	}
}
func same(i int) {
	for i > 0 { //alive:bounded
		i /= 2
	}
}
`)
	wantDiags(t, u)
}

func TestStopFlagPollIgnoresThreePartFor(t *testing.T) {
	u := parseSrc(t, "alive/internal/sat", `package sat
func loop(n int) {
	for i := 0; ; i++ {
		_ = i
	}
}
`)
	wantDiags(t, u)
}

func TestStopFlagPollCoversMetrics(t *testing.T) {
	// The metrics package is hot: the sampler hook runs inside the CDCL
	// restart loop.
	u := parseSrc(t, "alive/internal/metrics", `package metrics
func spin(r *Ring) {
	for {
		r.Push(s)
	}
}
`)
	wantDiags(t, u, "stopflagpoll@3")
}

func TestSpanEndCoversMetrics(t *testing.T) {
	u := parseSrc(t, "alive/internal/metrics", `package metrics
func sample(tk *telemetry.Track) {
	sp := tk.Start("scrape", "metrics")
	work()
}
`)
	wantDiags(t, u, "spanend@3")
}

func TestStopFlagPollSkipsColdPackages(t *testing.T) {
	u := parseSrc(t, "alive/internal/parser", `package parser
func spin() {
	for {
	}
}
`)
	wantDiags(t, u)
}

func TestSpanEndFlagsLeakedSpan(t *testing.T) {
	u := parseSrc(t, "alive/internal/solver", `package solver
func run(tk *telemetry.Track) {
	sp := tk.Start("solve", "solver")
	work()
}
`)
	wantDiags(t, u, "spanend@3")
}

func TestSpanEndAcceptsEndAndDefer(t *testing.T) {
	u := parseSrc(t, "alive/internal/solver", `package solver
func direct(tk *telemetry.Track) {
	sp := tk.Start("a", "b")
	work()
	sp.End()
}
func deferred(parent *telemetry.Span) {
	sp := parent.Child("a", "b")
	defer sp.End()
	work()
}
func inClosure(parent *telemetry.Span) {
	cb := func() func() {
		sp := parent.Child("a", "b")
		return func() { sp.End() }
	}
	_ = cb
}
`)
	wantDiags(t, u)
}

func TestSpanEndAcceptsEscapes(t *testing.T) {
	u := parseSrc(t, "alive/internal/solver", `package solver
func passed(tk *telemetry.Track) {
	sp := tk.Start("a", "b")
	hand(sp)
}
func returned(tk *telemetry.Track) *telemetry.Span {
	sp := tk.Start("a", "b")
	return sp
}
func stored(tk *telemetry.Track, s *state) {
	sp := tk.Start("a", "b")
	s.span = sp
}
`)
	wantDiags(t, u)
}

func TestSpanEndNeutralUsesStillFlag(t *testing.T) {
	// SetAttr calls and nil checks do not count as ending the span.
	u := parseSrc(t, "alive/internal/solver", `package solver
func run(tk *telemetry.Track) {
	sp := tk.Start("a", "b")
	if sp != nil {
		sp.SetAttr("k", "v")
	}
}
`)
	wantDiags(t, u, "spanend@3")
}

func TestSpanEndIgnoresUnrelatedStarts(t *testing.T) {
	// Zero- and one-argument Start calls (exec.Cmd.Start, timers) are
	// not span starts.
	u := parseSrc(t, "alive/internal/solver", `package solver
func run(cmd *exec.Cmd) {
	err := cmd.Start()
	_ = err
}
`)
	wantDiags(t, u)
}

// TestRepoClean walks the whole module and requires the suite to be
// quiet: every hot-path loop polls or is annotated, every span is
// ended or handed off. This is the in-tree mirror of the CI
// `go vet -vettool` run, so a regression fails `go test` even before
// CI.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root || name == "testdata" || name == "artifacts" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		importPath := "alive"
		if dir != "." {
			importPath = "alive/" + dir
		}
		pkgs[importPath] = append(pkgs[importPath], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for importPath, files := range pkgs {
		u, err := ParseUnit(importPath, files)
		if err != nil {
			t.Fatalf("%s: %v", importPath, err)
		}
		for _, d := range Run(u) {
			t.Errorf("%s", d)
		}
	}
}

// TestVetToolProtocol drives Main through the three entry modes of the
// go vet -vettool contract without spawning a subprocess.
func TestVetToolProtocol(t *testing.T) {
	if code := Main([]string{"-flags"}); code != 0 {
		t.Fatalf("-flags exit = %d", code)
	}
	if code := Main([]string{}); code != 1 {
		t.Fatalf("no-args exit = %d, want usage error", code)
	}

	dir := t.TempDir()
	src := filepath.Join(dir, "hot.go")
	if err := os.WriteFile(src, []byte("package sat\nfunc spin() {\n\tfor {\n\t}\n}\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "out.vetx")
	writeCfg := func(cfg vetConfig) string {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cfg := writeCfg(vetConfig{ImportPath: "alive/internal/sat", GoFiles: []string{src}, VetxOutput: vetx})
	if code := Main([]string{cfg}); code != 2 {
		t.Fatalf("dirty package exit = %d, want 2", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx facts file not written: %v", err)
	}

	// Dependency-only runs and foreign packages are skipped even when
	// their sources would trip an analyzer.
	cfg = writeCfg(vetConfig{ImportPath: "alive/internal/sat", GoFiles: []string{src}, VetxOnly: true, VetxOutput: vetx})
	if code := Main([]string{cfg}); code != 0 {
		t.Fatalf("VetxOnly exit = %d, want 0", code)
	}
	cfg = writeCfg(vetConfig{ImportPath: "example.com/other/sat", GoFiles: []string{src}, VetxOutput: vetx})
	if code := Main([]string{cfg}); code != 0 {
		t.Fatalf("foreign package exit = %d, want 0", code)
	}
}
