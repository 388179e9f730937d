package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// preprocessReport is the JSON artifact the experiment writes when
// Config.ArtifactDir is set; CI uploads it so preprocessing
// effectiveness can be tracked across commits.
type preprocessReport struct {
	Widths     []int              `json:"widths"`
	Transforms int                `json:"transforms"`
	Mismatches []string           `json:"verdict_mismatches"`
	InvalidOn  int                `json:"invalid_with_preprocess"`
	InvalidOff int                `json:"invalid_without_preprocess"`
	On         telemetry.Counters `json:"with_preprocess"`
	Off        telemetry.Counters `json:"without_preprocess"`
	PropRatio  float64            `json:"propagation_ratio"`
	ConflRatio float64            `json:"conflict_ratio"`
	OnMillis   int64              `json:"wall_ms_with_preprocess"`
	OffMillis  int64              `json:"wall_ms_without_preprocess"`
}

// Preprocess runs the CNF-preprocessing A/B experiment: the whole
// corpus is verified once with the SatELite-style preprocessor enabled
// and once with bit-blasted clauses streaming straight into CDCL. The
// two runs must produce identical verdicts (frozen interface variables
// keep counterexamples exact); the report shows the per-pass
// static-analysis work and the resulting drop in CDCL propagations and
// conflicts.
func Preprocess(cfg *Config) string {
	var sb strings.Builder
	sb.WriteString("Preprocess: SatELite-style CNF preprocessing on the corpus (A/B)\n\n")

	ts := suite.ParseAll()
	onRes, onT := runLeg(cfg, ts, nil)
	offRes, offT := runLeg(cfg, ts, func(o *verify.Options) { o.DisablePreprocess = true })

	rep := preprocessReport{Widths: cfg.Widths, Transforms: len(ts)}
	for i := range onRes {
		rep.On.Add(onRes[i].Counters)
		rep.Off.Add(offRes[i].Counters)
	}
	if rep.Off.Propagations > 0 {
		rep.PropRatio = float64(rep.On.Propagations) / float64(rep.Off.Propagations)
	}
	if rep.Off.Conflicts > 0 {
		rep.ConflRatio = float64(rep.On.Conflicts) / float64(rep.Off.Conflicts)
	}
	rep.OnMillis = onT.Milliseconds()
	rep.OffMillis = offT.Milliseconds()

	fmt.Fprintf(&sb, "corpus: %d transformations at widths %v\n\n", len(ts), cfg.Widths)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "preproc on", "preproc off")
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "solver Check calls", rep.On.Checks, rep.Off.Checks)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CDCL runs", rep.On.CDCLRuns, rep.Off.CDCLRuns)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CNF variables", rep.On.CNFVars, rep.Off.CNFVars)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CNF clauses", rep.On.CNFClauses, rep.Off.CNFClauses)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "propagations", rep.On.Propagations, rep.Off.Propagations)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "conflicts", rep.On.Conflicts, rep.Off.Conflicts)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "decisions", rep.On.Decisions, rep.Off.Decisions)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "learned clauses", rep.On.LearnedClauses, rep.Off.LearnedClauses)
	fmt.Fprintf(&sb, "%-28s %12v %12v\n", "wall clock", onT.Round(time.Millisecond), offT.Round(time.Millisecond))

	fmt.Fprintf(&sb, "\npreprocessor work: %d vars eliminated, %d clauses subsumed, %d strengthened, %d blocked, %d probe units\n",
		rep.On.VarsEliminated, rep.On.ClausesSubsumed, rep.On.ClausesStrengthened,
		rep.On.ClausesBlocked, rep.On.ProbeUnits)
	if rep.Off.Propagations > 0 && rep.Off.Conflicts > 0 {
		fmt.Fprintf(&sb, "search reduction: propagations x%.2f, conflicts x%.2f of the unpreprocessed run\n",
			rep.PropRatio, rep.ConflRatio)
	}
	vc := checkVerdicts(cfg, &sb, "preprocess", ts, onRes, offRes)
	rep.Mismatches, rep.InvalidOn, rep.InvalidOff = vc.Mismatches, vc.InvalidOn, vc.InvalidOff
	if rep.On.Propagations < rep.Off.Propagations && rep.On.Conflicts <= rep.Off.Conflicts {
		sb.WriteString("search check: preprocessing reduces propagations without adding conflicts — PASS\n")
	} else {
		sb.WriteString("search check: preprocessing did not reduce CDCL work — FAIL\n")
		cfg.Failures = append(cfg.Failures, "preprocess: preprocessing did not reduce CDCL work")
	}

	if cfg.ArtifactDir != "" {
		if err := writePreprocessArtifact(cfg.ArtifactDir, &rep); err != nil {
			fmt.Fprintf(&sb, "artifact: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "artifact: wrote %s\n", filepath.Join(cfg.ArtifactDir, "preprocess.json"))
		}
	}
	return sb.String()
}

func writePreprocessArtifact(dir string, rep *preprocessReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "preprocess.json"), append(data, '\n'), 0o644)
}
