package perf

import (
	"cmp"
	"slices"
	"time"

	"alive/internal/telemetry"
)

// selfTimes folds completed spans into the total self time of each span
// category. A span's self time is its duration minus the durations of its
// direct children. Nesting is positional, as in the Chrome trace the
// spans export to: on one track, a span is the child of the innermost
// span whose interval contains it.
func selfTimes(events []telemetry.Event) map[string]time.Duration {
	byTrack := map[int][]telemetry.Event{}
	for _, ev := range events {
		byTrack[ev.Track] = append(byTrack[ev.Track], ev)
	}
	out := map[string]time.Duration{}
	for _, evs := range byTrack {
		// Parents sort before their children: earlier start first, and at
		// equal starts the longer span first.
		slices.SortStableFunc(evs, func(a, b telemetry.Event) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return cmp.Compare(b.Dur, a.Dur)
		})
		self := make([]time.Duration, len(evs))
		var open []int // indices of the spans enclosing the current one
		for i, ev := range evs {
			self[i] = ev.Dur
			for len(open) > 0 {
				p := evs[open[len(open)-1]]
				if ev.Start+ev.Dur <= p.Start+p.Dur {
					break
				}
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				self[open[len(open)-1]] -= ev.Dur
			}
			open = append(open, i)
		}
		for i, ev := range evs {
			out[ev.Cat] += self[i]
		}
	}
	return out
}
