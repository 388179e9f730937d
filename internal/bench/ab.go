package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"alive/internal/ir"
	"alive/internal/verify"
)

// runLeg verifies ts once with the experiment's default options as
// changed by mutate (nil leaves them alone): one leg of an A/B
// experiment.
func runLeg(cfg *Config, ts []*ir.Transform, mutate func(*verify.Options)) ([]verify.Result, time.Duration) {
	opts := cfg.verifyOpts()
	if mutate != nil {
		mutate(&opts)
	}
	start := time.Now()
	res, _ := verify.RunCorpus(context.Background(), ts, verify.CorpusOptions{
		Verify:  opts,
		Workers: cfg.Jobs,
	})
	return res, time.Since(start)
}

// verdictCheck is the outcome of comparing the per-transform verdicts
// of an A/B experiment's two legs.
type verdictCheck struct {
	Mismatches []string
	InvalidOn  int
	InvalidOff int
}

// checkVerdicts compares the two legs of the A/B experiment exp — on
// runs the layer, off runs without it — transform by transform. A
// layer may change how much work a proof costs but never its verdict,
// so it writes the "verdict check" line to sb and records every
// disagreement in cfg.Failures, which makes alive-bench exit nonzero.
func checkVerdicts(cfg *Config, sb *strings.Builder, exp string, ts []*ir.Transform, on, off []verify.Result) verdictCheck {
	var vc verdictCheck
	for i := range on {
		if on[i].Verdict != off[i].Verdict {
			vc.Mismatches = append(vc.Mismatches,
				fmt.Sprintf("%s: %v with %s, %v without", ts[i].Name, on[i].Verdict, exp, off[i].Verdict))
		}
		if on[i].Verdict == verify.Invalid {
			vc.InvalidOn++
		}
		if off[i].Verdict == verify.Invalid {
			vc.InvalidOff++
		}
	}
	if len(vc.Mismatches) == 0 {
		fmt.Fprintf(sb, "verdict check: all %d verdicts agree, %d invalid on both legs — PASS\n", len(on), vc.InvalidOn)
		return vc
	}
	fmt.Fprintf(sb, "verdict check: %d MISMATCHES — FAIL\n", len(vc.Mismatches))
	for _, m := range vc.Mismatches {
		fmt.Fprintf(sb, "  %s\n", m)
	}
	cfg.Failures = append(cfg.Failures, fmt.Sprintf("%s: %d verdict mismatches", exp, len(vc.Mismatches)))
	return vc
}
