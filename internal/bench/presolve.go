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

// presolveReport is the JSON artifact the experiment writes when
// Config.ArtifactDir is set; CI uploads it so presolver effectiveness
// can be tracked across commits.
type presolveReport struct {
	Widths     []int              `json:"widths"`
	Transforms int                `json:"transforms"`
	Mismatches []string           `json:"verdict_mismatches"`
	InvalidOn  int                `json:"invalid_with_presolve"`
	InvalidOff int                `json:"invalid_without_presolve"`
	On         telemetry.Counters `json:"with_presolve"`
	Off        telemetry.Counters `json:"without_presolve"`
	Discharged int                `json:"queries_discharged"`
	Simplified int                `json:"queries_simplified"`
	Rate       float64            `json:"discharge_rate"`
	OnMillis   int64              `json:"wall_ms_with_presolve"`
	OffMillis  int64              `json:"wall_ms_without_presolve"`
}

// Presolve runs the abstract-interpretation presolver A/B experiment:
// the whole corpus is verified once with the presolver enabled and once
// with it disabled. The two runs must produce identical verdicts
// (including the 8 Figure 8 bugs staying wrong); the report shows how
// many solver queries the abstraction discharged or simplified without
// a CDCL run, the unit-clause hints it seeded, and the CNF shrink.
func Presolve(cfg *Config) string {
	var sb strings.Builder
	sb.WriteString("Presolve: abstract-interpretation presolver on the corpus (A/B)\n\n")

	ts := suite.ParseAll()
	onRes, onT := runLeg(cfg, ts, nil)
	offRes, offT := runLeg(cfg, ts, func(o *verify.Options) { o.DisablePresolve = true })

	rep := presolveReport{Widths: cfg.Widths, Transforms: len(ts)}
	for i := range onRes {
		rep.On.Add(onRes[i].Counters)
		rep.Off.Add(offRes[i].Counters)
		rep.Discharged += onRes[i].QueriesDischarged
		rep.Simplified += onRes[i].QueriesSimplified
	}
	if rep.On.Checks > 0 {
		rep.Rate = float64(rep.On.DischargedOrSimplified()) / float64(rep.On.Checks)
	}
	rep.OnMillis = onT.Milliseconds()
	rep.OffMillis = offT.Milliseconds()

	fmt.Fprintf(&sb, "corpus: %d transformations at widths %v\n\n", len(ts), cfg.Widths)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "presolve on", "presolve off")
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "solver Check calls", rep.On.Checks, rep.Off.Checks)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "folded by builder", rep.On.Folded, rep.Off.Folded)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "decided abstractly", rep.On.Decided, rep.Off.Decided)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "simplified term DAGs", rep.On.Simplified, rep.Off.Simplified)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CDCL runs", rep.On.CDCLRuns, rep.Off.CDCLRuns)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "hint literals seeded", rep.On.HintLits, rep.Off.HintLits)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CNF variables", rep.On.CNFVars, rep.Off.CNFVars)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CNF clauses", rep.On.CNFClauses, rep.Off.CNFClauses)
	fmt.Fprintf(&sb, "%-28s %12v %12v\n", "wall clock", onT.Round(time.Millisecond), offT.Round(time.Millisecond))

	fmt.Fprintf(&sb, "\nrefinement queries discharged without CDCL: %d, simplified first: %d\n",
		rep.Discharged, rep.Simplified)
	fmt.Fprintf(&sb, "discharged-or-simplified rate: %d/%d = %.0f%% (target >= 20%%)\n",
		rep.On.DischargedOrSimplified(), rep.On.Checks, 100*rep.Rate)
	vc := checkVerdicts(cfg, &sb, "presolve", ts, onRes, offRes)
	rep.Mismatches, rep.InvalidOn, rep.InvalidOff = vc.Mismatches, vc.InvalidOn, vc.InvalidOff
	if rep.Rate >= 0.20 {
		sb.WriteString("rate check: presolver discharges or simplifies >= 20% of queries — PASS\n")
	} else {
		sb.WriteString("rate check: below the 20% target — FAIL\n")
		cfg.Failures = append(cfg.Failures, fmt.Sprintf("presolve: discharge rate %.2f below 0.20", rep.Rate))
	}

	if cfg.ArtifactDir != "" {
		if err := writePresolveArtifact(cfg.ArtifactDir, &rep); err != nil {
			fmt.Fprintf(&sb, "artifact: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "artifact: wrote %s\n", filepath.Join(cfg.ArtifactDir, "presolve.json"))
		}
	}
	return sb.String()
}

func writePresolveArtifact(dir string, rep *presolveReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "presolve.json"), append(data, '\n'), 0o644)
}
