package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram counts non-negative int64 observations in power-of-two
// buckets: bucket k holds values v with 2^(k-1) <= v < 2^k (bucket 0
// holds zero and negatives). Cheap enough to fill per transformation in
// the corpus driver; Render draws the classic bar chart for the human
// summary.
type Histogram struct {
	Counts [65]int64
	N      int64
	Sum    int64
	Max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.N++
	if v > 0 {
		h.Sum += v
		if v > h.Max {
			h.Max = v
		}
		h.Counts[bits.Len64(uint64(v))]++
		return
	}
	h.Counts[0]++
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Render draws the non-empty bucket range as rows of
// "<upper-bound><unit> count bar", scaled to a 40-column bar.
func (h *Histogram) Render(unit string) string {
	lo, hi := -1, -1
	var peak int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i
		if c > peak {
			peak = c
		}
	}
	if lo < 0 {
		return "  (no observations)\n"
	}
	var sb strings.Builder
	for i := lo; i <= hi; i++ {
		bound := "0"
		switch {
		case i >= 64:
			// 1<<64 wraps to zero; the top bucket has no finite upper
			// bound in uint64 space.
			bound = "huge"
		case i > 0:
			bound = fmt.Sprintf("<%d", uint64(1)<<i)
		}
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(h.Counts[i]*40/peak))
		}
		if h.Counts[i] > 0 && bar == "" {
			bar = "." // visible trace of a tiny bucket
		}
		fmt.Fprintf(&sb, "  %10s%-3s %6d %s\n", bound, unit, h.Counts[i], bar)
	}
	return sb.String()
}
