package telemetry

import (
	"strings"
	"testing"
)

func TestHistogramZeroAndMaxBucketEdges(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Error("Mean of empty histogram must be 0")
	}
	if got := h.Render("ms"); !strings.Contains(got, "no observations") {
		t.Errorf("empty Render = %q", got)
	}
	// Only zero/negative observations: single bucket, no divide-by-zero,
	// a visible bar.
	h.Observe(0)
	h.Observe(-3)
	out := h.Render("ms")
	if !strings.Contains(out, "0") || strings.Contains(out, "<0") {
		t.Errorf("zero-only Render wrong:\n%s", out)
	}
	// The top bucket (index 64) is unreachable from Observe on int64
	// inputs; its bound label must not wrap around to "<0".
	var top Histogram
	top.Counts[64] = 2
	top.N = 2
	out = top.Render("")
	if strings.Contains(out, "<0") {
		t.Errorf("max bucket label overflowed:\n%s", out)
	}
	if !strings.Contains(out, "huge") {
		t.Errorf("max bucket label missing:\n%s", out)
	}
}
