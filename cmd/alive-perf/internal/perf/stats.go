package perf

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs, interpolating
// linearly between order statistics; 0 for no samples, which only a
// round whose every item failed leaves.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := p * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same values there.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
