package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// ablateRow is one optional solver layer of the ablation table: the
// switch that leaves it out, and the check that says whether it pays.
type ablateRow struct {
	layer   string
	disable func(*verify.Options)
	// pays judges the layer from the counters of the default leg (on)
	// and of the leg without it (off). It returns the finding and
	// whether the layer earns its place.
	pays func(on, off telemetry.Counters) (string, bool)
}

// ablateRows lists the layers with a Disable switch. A new layer costs
// one row.
var ablateRows = []ablateRow{
	{"presolve", func(o *verify.Options) { o.DisablePresolve = true }, presolvePays},
	{"preprocess", func(o *verify.Options) { o.DisablePreprocess = true }, preprocessPays},
}

// presolvePays requires the presolver, with the builder folding in
// front of it, to discharge at least 20% of the solver checks without a
// CDCL run.
func presolvePays(on, _ telemetry.Counters) (string, bool) {
	discharged := on.Folded + on.Decided
	rate := 0.0
	if on.Checks > 0 {
		rate = float64(discharged) / float64(on.Checks)
	}
	return fmt.Sprintf("discharges %d/%d = %.0f%% of checks without CDCL (target >= 20%%)",
		discharged, on.Checks, 100*rate), rate >= 0.20
}

// preprocessPays requires CNF preprocessing to cut propagations without
// adding conflicts.
func preprocessPays(on, off telemetry.Counters) (string, bool) {
	return fmt.Sprintf("propagations x%.2f, conflicts x%.2f of the leg without it (must cut propagations, add no conflicts)",
			ratio(on.Propagations, off.Propagations), ratio(on.Conflicts, off.Conflicts)),
		on.Propagations < off.Propagations && on.Conflicts <= off.Conflicts
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ablateLeg is one corpus run of the experiment.
type ablateLeg struct {
	Counters telemetry.Counters `json:"counters"`
	Invalid  int                `json:"invalid"`
	WallMS   int64              `json:"wall_ms"`
}

// ablateLayer is one row's outcome: its leave-one-out leg, the verdicts
// that leg disagreed on, and the pays check.
type ablateLayer struct {
	Layer      string    `json:"layer"`
	Without    ablateLeg `json:"without"`
	Mismatches []string  `json:"verdict_mismatches"`
	Check      string    `json:"pays_check"`
	Pays       bool      `json:"pays"`
}

// ablateReport is ablate.json.
type ablateReport struct {
	Widths     []int         `json:"widths"`
	Transforms int           `json:"transforms"`
	Default    ablateLeg     `json:"default"`
	Layers     []ablateLayer `json:"layers"`
}

// Ablate runs the leave-one-out ablation of the optional solver layers:
// the corpus is verified once with the default options and once with
// each row's layer switched off. Every leg must reach the default leg's
// verdicts, and each layer must pass its pays check; either failure
// lands in cfg.Failures. With ArtifactDir set it writes ablate.json.
func Ablate(cfg *Config) string {
	var sb strings.Builder
	sb.WriteString("Ablate: leave-one-out ablation of the optional solver layers\n\n")

	ts := suite.ParseAll()
	rep := ablateReport{Widths: cfg.Widths, Transforms: len(ts)}
	onRes, onT := runLeg(cfg, ts, nil)
	rep.Default = summarizeLeg(onRes, onT)
	var checks strings.Builder
	for _, r := range ablateRows {
		res, t := runLeg(cfg, ts, r.disable)
		l := ablateLayer{Layer: r.layer, Without: summarizeLeg(res, t)}
		fmt.Fprintf(&checks, "\n%s:\n", r.layer)
		l.Mismatches = checkVerdicts(cfg, &checks, r.layer, ts, onRes, res).Mismatches
		l.Check, l.Pays = judge(cfg, &checks, r, rep.Default.Counters, l.Without.Counters)
		rep.Layers = append(rep.Layers, l)
	}

	fmt.Fprintf(&sb, "corpus: %d transformations at widths %v\n\n", len(ts), cfg.Widths)
	fmt.Fprintf(&sb, "%-12s %7s %10s %9s %9s %11s %13s %10s %10s %9s\n", "leg", "checks",
		"discharged", "CDCL runs", "CNF vars", "CNF clauses", "propagations", "conflicts", "decisions", "wall")
	row := func(name string, leg ablateLeg) {
		c := leg.Counters
		fmt.Fprintf(&sb, "%-12s %7d %10d %9d %9d %11d %13d %10d %10d %8.2fs\n", name, c.Checks,
			c.Folded+c.Decided, c.CDCLRuns, c.CNFVars, c.CNFClauses, c.Propagations, c.Conflicts,
			c.Decisions, float64(leg.WallMS)/1000)
	}
	row("default", rep.Default)
	for _, l := range rep.Layers {
		row("-"+l.Layer, l.Without)
	}
	sb.WriteString(checks.String())

	if cfg.ArtifactDir != "" {
		path := filepath.Join(cfg.ArtifactDir, "ablate.json")
		if err := writeJSON(path, &rep); err != nil {
			fmt.Fprintf(&sb, "artifact: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "artifact: wrote %s\n", path)
		}
	}
	return sb.String()
}

// summarizeLeg totals one leg's per-transform counters.
func summarizeLeg(res []verify.Result, wall time.Duration) ablateLeg {
	leg := ablateLeg{WallMS: wall.Milliseconds()}
	for _, r := range res {
		leg.Counters.Add(r.Counters)
		if r.Verdict == verify.Invalid {
			leg.Invalid++
		}
	}
	return leg
}

// judge runs row's pays check, writes its line to sb, and records a
// layer that does not pay in cfg.Failures.
func judge(cfg *Config, sb *strings.Builder, row ablateRow, on, off telemetry.Counters) (string, bool) {
	check, ok := row.pays(on, off)
	if ok {
		fmt.Fprintf(sb, "pays check: %s — PASS\n", check)
	} else {
		fmt.Fprintf(sb, "pays check: %s — FAIL\n", check)
		cfg.Failures = append(cfg.Failures, fmt.Sprintf("%s: does not pay: %s", row.layer, check))
	}
	return check, ok
}
