package verify

import (
	"bufio"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"alive/internal/metrics"
	"alive/internal/sat"
	"alive/internal/telemetry"
)

// Live is the one record of a running corpus: RunCorpus folds every
// result into it as the result lands and builds its CorpusStats from
// these tallies, the /debug/status handler snapshots it as JSON, and
// WriteMetrics writes it as /metrics series. One Live serves one
// RunCorpus call at a time, and each call starts it afresh; all methods
// are safe for concurrent use.
type Live struct {
	mu sync.Mutex
	// stats holds the run's tallies; the never-dispatched skips of an
	// interrupted run are added to RunCorpus's copy only.
	stats   CorpusStats
	workers int
	current map[int]workerState
	// verifyUS is the histogram of verification wall time in
	// microseconds.
	verifyUS telemetry.Histogram
	// solver is the last sample of whichever SAT core most recently
	// reported one, from any worker.
	solver sat.SampleStats
}

type workerState struct {
	name  string
	since time.Time
}

// NewLive returns an empty status block.
func NewLive() *Live {
	return &Live{current: map[int]workerState{}}
}

// begin starts a run of total transforms on a pool of workers,
// resetting every tally of a previous run.
func (l *Live) begin(total, workers int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = CorpusStats{Total: total}
	l.workers = workers
	l.verifyUS = telemetry.Histogram{}
	l.solver = sat.SampleStats{}
}

// dispatch marks worker as verifying the named transform.
func (l *Live) dispatch(worker int, name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if name == "" {
		name = "(unnamed)"
	}
	l.current[worker] = workerState{name: name, since: time.Now()}
}

// finish folds one completed verification into the tallies.
func (l *Live) finish(worker int, res Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.current, worker)
	l.stats.Completed++
	l.stats.add(res)
	l.verifyUS.Observe(res.Duration.Microseconds())
}

// resume folds one verdict restored from the journal into the tallies.
func (l *Live) resume(res Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Resumed++
	l.stats.add(res)
}

// sample records a SAT core's latest search snapshot.
func (l *Live) sample(s sat.SampleStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.solver = s
}

// corpusStats returns a copy of the run's tallies.
func (l *Live) corpusStats() CorpusStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// WorkerStatus is one in-flight verification in a status snapshot.
type WorkerStatus struct {
	Worker    int    `json:"worker"`
	Transform string `json:"transform"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// LiveSnapshot is the /debug/status JSON body.
type LiveSnapshot struct {
	Total       int            `json:"total"`
	Completed   int            `json:"completed"`
	QueueDepth  int            `json:"queue_depth"`
	Workers     int            `json:"workers"`
	Valid       int            `json:"valid"`
	Invalid     int            `json:"invalid"`
	Unknown     int            `json:"unknown"`
	Rejected    int            `json:"rejected"`
	Resumed     int            `json:"resumed"`
	Queries     int            `json:"queries"`
	Escalations int            `json:"escalations"`
	InFlight    []WorkerStatus `json:"in_flight"`
}

// Snapshot returns a point-in-time copy for the status endpoint.
func (l *Live) Snapshot() LiveSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &l.stats
	s := LiveSnapshot{
		Total:       st.Total,
		Completed:   st.Completed + st.Resumed,
		QueueDepth:  st.Total - st.Completed - st.Resumed,
		Workers:     l.workers,
		Valid:       st.Valid,
		Invalid:     st.Invalid,
		Unknown:     st.Unknown,
		Rejected:    st.Rejected,
		Resumed:     st.Resumed,
		Queries:     st.Queries,
		Escalations: st.Escalations,
	}
	now := time.Now()
	for w, ws := range l.current {
		s.InFlight = append(s.InFlight, WorkerStatus{
			Worker:    w,
			Transform: ws.name,
			ElapsedMS: now.Sub(ws.since).Milliseconds(),
		})
	}
	sort.Slice(s.InFlight, func(i, j int) bool { return s.InFlight[i].Worker < s.InFlight[j].Worker })
	return s
}

// WriteMetrics writes the /metrics surface in Prometheus text format
// from one locked copy of the record: corpus progress gauges, the
// last-sampled SAT core's gauges, process gauges, the verification-time
// histogram, and the pipeline counter block (one series per counter).
func (l *Live) WriteMetrics(w io.Writer) error {
	l.mu.Lock()
	st, workers, inFlight, verifyUS, ss := l.stats, l.workers, len(l.current), l.verifyUS, l.solver
	l.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	done := st.Completed + st.Resumed
	gauges := []struct {
		name, help string
		v          int64
	}{
		{"alive_corpus_total", "Transformations submitted to the run.", int64(st.Total)},
		{"alive_corpus_completed", "Transformations with a verdict (including resumed).", int64(done)},
		{"alive_corpus_queue_depth", "Transformations not yet decided.", int64(st.Total - done)},
		{"alive_corpus_workers", "Worker-pool size.", int64(workers)},
		{"alive_corpus_in_flight", "Verifications running right now.", int64(inFlight)},
		{"alive_corpus_valid", "Valid verdicts so far.", int64(st.Valid)},
		{"alive_corpus_invalid", "Invalid verdicts so far.", int64(st.Invalid)},
		{"alive_corpus_unknown", "Unknown verdicts so far.", int64(st.Unknown)},
		{"alive_corpus_rejected", "Rejected (lint) verdicts so far.", int64(st.Rejected)},
		{"alive_corpus_resumed", "Verdicts restored from the resume journal.", int64(st.Resumed)},
		{"alive_corpus_queries", "Solver queries issued so far.", int64(st.Queries)},
		{"alive_corpus_escalations", "Conflict-budget ladder retries so far.", int64(st.Escalations)},
		{"alive_solver_conflicts", "Cumulative conflicts of the last-sampled SAT core.", ss.Conflicts},
		{"alive_solver_propagations", "Cumulative propagations of the last-sampled SAT core.", ss.Propagations},
		{"alive_solver_decisions", "Cumulative decisions of the last-sampled SAT core.", ss.Decisions},
		{"alive_solver_restarts", "Cumulative restarts of the last-sampled SAT core.", ss.Restarts},
		{"alive_solver_learnts", "Learnt clauses in the last-sampled core's database.", int64(ss.Learnts)},
		{"alive_solver_learnt_core", "Learnt clauses in the permanent (core LBD) tier.", int64(ss.LearntCore)},
		{"alive_solver_learnt_tier2", "Learnt clauses in the mid (tier-two LBD) tier.", int64(ss.LearntTier2)},
		{"alive_solver_trail_depth", "Assigned literals on the last-sampled core's trail.", int64(ss.Trail)},
		{"alive_solver_recent_lbd_x100", "Mean LBD of the recent-learnt ring, x100.", ss.RecentLBDx100},
		{"alive_solver_trail_ema_x100", "Trail-size EMA at conflicts, x100.", ss.TrailEMAx100},
		{"alive_process_heap_bytes", "Live heap allocation (runtime.MemStats.HeapAlloc).", int64(ms.HeapAlloc)},
		{"alive_process_goroutines", "Current goroutine count.", int64(runtime.NumGoroutine())},
	}
	bw := bufio.NewWriter(w)
	for _, g := range gauges {
		metrics.WriteGauge(bw, g.name, g.help, g.v)
	}
	metrics.WriteHistogram(bw, "alive_verify_us", "Per-transformation verification wall time (µs).", verifyUS)
	metrics.WriteCounters(bw, "alive", "Pipeline counter totals over completed verifications.", st.Counters)
	return bw.Flush()
}
