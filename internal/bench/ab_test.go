package bench

import (
	"strings"
	"testing"

	"alive/internal/ir"
	"alive/internal/verify"
)

func TestCheckVerdictsRecordsMismatch(t *testing.T) {
	ts := []*ir.Transform{{Name: "a"}, {Name: "b"}}
	on := []verify.Result{{Verdict: verify.Valid}, {Verdict: verify.Invalid}}
	off := []verify.Result{{Verdict: verify.Valid}, {Verdict: verify.Valid}}
	cfg := &Config{}
	var sb strings.Builder
	vc := checkVerdicts(cfg, &sb, "layer", ts, on, off)
	if len(vc.Mismatches) != 1 || !strings.HasPrefix(vc.Mismatches[0], "b: ") {
		t.Fatalf("mismatches = %v, want one for b", vc.Mismatches)
	}
	if vc.InvalidOn != 1 || vc.InvalidOff != 0 {
		t.Fatalf("invalid counts = %d/%d, want 1/0", vc.InvalidOn, vc.InvalidOff)
	}
	if len(cfg.Failures) != 1 || !strings.Contains(cfg.Failures[0], "layer") {
		t.Fatalf("failures = %v, want one naming the experiment", cfg.Failures)
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Fatalf("report does not say FAIL:\n%s", sb.String())
	}
}

func TestCheckVerdictsAgreementPasses(t *testing.T) {
	ts := []*ir.Transform{{Name: "a"}, {Name: "b"}}
	res := []verify.Result{{Verdict: verify.Valid}, {Verdict: verify.Invalid}}
	cfg := &Config{}
	var sb strings.Builder
	vc := checkVerdicts(cfg, &sb, "layer", ts, res, res)
	if len(vc.Mismatches) != 0 || len(cfg.Failures) != 0 {
		t.Fatalf("agreeing legs reported mismatches %v, failures %v", vc.Mismatches, cfg.Failures)
	}
	if !strings.Contains(sb.String(), "2 verdicts agree, 1 invalid on both legs — PASS") {
		t.Fatalf("report:\n%s", sb.String())
	}
}
