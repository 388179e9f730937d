package metrics

import "alive/internal/sat"

// SolverSample is one point-in-time snapshot of CDCL search internals,
// taken at restart boundaries (and on Unknown exits) by the
// sat.Solver.OnSample hook and annotated by the verifier with where in
// the verification the solve belongs.
type SolverSample struct {
	// ElapsedUS is microseconds since the verification began.
	ElapsedUS int64 `json:"elapsed_us"`
	// Assignment is the type-assignment index within the transform.
	Assignment int `json:"assignment"`
	// Condition names the verification condition being checked
	// (defined/poison/value/memory...).
	Condition string `json:"condition"`
	sat.SampleStats
}

// Ring is a fixed-capacity buffer of the most recent SolverSamples for
// one verification. It is not synchronized: a verification runs on a
// single worker goroutine, which both pushes samples and drains them
// into a flight artifact.
type Ring struct {
	buf   []SolverSample
	next  int
	total int64
}

// NewRing returns a ring holding the last n samples (n < 1 is clamped
// to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]SolverSample, 0, n)}
}

// Push appends a sample, evicting the oldest once full.
func (r *Ring) Push(s SolverSample) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Total is the number of samples ever pushed (more than the ring
// holds once eviction starts).
func (r *Ring) Total() int64 { return r.total }

// Samples returns the held samples oldest-first, as a fresh slice.
func (r *Ring) Samples() []SolverSample {
	out := make([]SolverSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
