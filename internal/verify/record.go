package verify

import (
	"fmt"
	"time"

	"alive/internal/metrics"
	"alive/internal/sat"
)

// queryRecorder threads one verification's solver samples from the SAT
// core's OnSample hook into (a) the per-verification ring buffer the
// flight recorder drains post-mortem and (b) the run's Live record,
// whose solver gauges show the last sample from any worker — the useful
// semantics for "what is a core doing right now". A verification runs
// on one worker goroutine and its solvers are single-threaded, so the
// assignment/condition position fields need no locking — the verifier
// updates them as it moves through the check loop and the hook reads
// them on the same goroutine.
type queryRecorder struct {
	start      time.Time
	ring       *metrics.Ring // nil without a flight recorder
	live       *Live         // nil outside a RunCorpus with a Live
	assignment int
	condition  string
}

func newQueryRecorder(opts Options, start time.Time) *queryRecorder {
	rec := &queryRecorder{start: start, live: opts.live}
	if opts.Flight != nil {
		rec.ring = metrics.NewRing(metrics.FlightSamples)
	}
	return rec
}

// onSample implements the sat.SampleStats sink.
func (r *queryRecorder) onSample(ss sat.SampleStats) {
	if r.ring != nil {
		r.ring.Push(metrics.SolverSample{
			ElapsedUS:   time.Since(r.start).Microseconds(),
			Assignment:  r.assignment,
			Condition:   r.condition,
			SampleStats: ss,
		})
	}
	if r.live != nil {
		r.live.sample(ss)
	}
}

// spanPath renders where in the verification the verifier gave up, in
// the same shape the telemetry span tree uses
// (transform/assignment[i]/check:condition).
func spanPath(res *Result) string {
	path := "transform"
	if res.GaveUpAssignment >= 0 {
		path = fmt.Sprintf("%s/assignment[%d]", path, res.GaveUpAssignment)
	}
	if res.GaveUpCondition != "" {
		path = fmt.Sprintf("%s/check:%s", path, res.GaveUpCondition)
	}
	return path
}

// recordFlight serializes a post-mortem artifact for a finished
// verification that tripped the recorder (Unknown verdict of any
// reason — deadline, conflict budget, memory-governor OOM, panic — or
// wall time past the Slow threshold). Artifact write failures are
// reported on res.Err (without clobbering an existing error) rather
// than failing the verification.
func recordFlight(fr *metrics.FlightRecorder, t string, res *Result, rec *queryRecorder) {
	if !fr.ShouldRecord(res.Verdict == Unknown, res.Duration) {
		return
	}
	trigger := "slow"
	if res.Verdict == Unknown {
		trigger = "unknown"
	}
	reason := ""
	if res.Reason != ReasonNone {
		reason = res.Reason.String()
	}
	hdr := metrics.FlightHeader{
		Transform:       t,
		Verdict:         res.Verdict.String(),
		Reason:          reason,
		Trigger:         trigger,
		DurationUS:      res.Duration.Microseconds(),
		Queries:         res.Queries,
		Escalations:     res.Escalations,
		GaveUpCondition: res.GaveUpCondition,
		SpanPath:        spanPath(res),
	}
	if res.GaveUpAssignment >= 0 {
		hdr.GaveUpAssignment = fmt.Sprintf("%d", res.GaveUpAssignment)
	}
	if _, err := fr.Record(hdr, res.Counters, rec.ring); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("flight recorder: %w", err)
	}
}
