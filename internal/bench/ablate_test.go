package bench

import (
	"strings"
	"testing"

	"alive/internal/telemetry"
)

// TestAblateGates feeds each row's pays check synthetic counters: a
// failing layer must land in cfg.Failures, a passing one must not.
func TestAblateGates(t *testing.T) {
	rows := map[string]ablateRow{}
	for _, r := range ablateRows {
		rows[r.layer] = r
	}
	cases := []struct {
		name    string
		layer   string
		on, off telemetry.Counters
		pays    bool
	}{
		{"presolve at 20%", "presolve",
			telemetry.Counters{Checks: 100, Folded: 12, Decided: 8}, telemetry.Counters{Checks: 100, Folded: 12}, true},
		{"presolve under 20%", "presolve",
			telemetry.Counters{Checks: 100, Folded: 12, Decided: 7}, telemetry.Counters{Checks: 100, Folded: 12}, false},
		{"preprocess cuts propagations", "preprocess",
			telemetry.Counters{Propagations: 40, Conflicts: 10}, telemetry.Counters{Propagations: 100, Conflicts: 10}, true},
		{"preprocess adds conflicts", "preprocess",
			telemetry.Counters{Propagations: 40, Conflicts: 11}, telemetry.Counters{Propagations: 100, Conflicts: 10}, false},
		{"preprocess adds propagations", "preprocess",
			telemetry.Counters{Propagations: 100, Conflicts: 9}, telemetry.Counters{Propagations: 100, Conflicts: 10}, false},
	}
	for _, tc := range cases {
		row, ok := rows[tc.layer]
		if !ok {
			t.Fatalf("no ablate row for %s", tc.layer)
		}
		cfg := &Config{}
		var sb strings.Builder
		if _, pays := judge(cfg, &sb, row, tc.on, tc.off); pays != tc.pays {
			t.Errorf("%s: pays = %v, want %v (%s)", tc.name, pays, tc.pays, sb.String())
		}
		if failed := len(cfg.Failures) > 0; failed == tc.pays {
			t.Errorf("%s: failures = %v, want failed = %v", tc.name, cfg.Failures, !tc.pays)
		}
		if want := map[bool]string{true: "PASS", false: "FAIL"}[tc.pays]; !strings.Contains(sb.String(), want) {
			t.Errorf("%s: report does not say %s:\n%s", tc.name, want, sb.String())
		}
		if !tc.pays && !strings.Contains(cfg.Failures[0], tc.layer) {
			t.Errorf("%s: failure %q does not name the layer", tc.name, cfg.Failures[0])
		}
	}
}
