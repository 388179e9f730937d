package verify

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"alive/internal/faultinject"
	"alive/internal/ir"
	"alive/internal/sat"
	"alive/internal/telemetry"
)

// CorpusOptions configures RunCorpus.
type CorpusOptions struct {
	// Verify is the per-transformation configuration.
	Verify Options
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// TransformTimeout bounds each transformation's wall-clock time; it
	// tightens (never loosens) Verify.Timeout. 0 means no per-transform
	// deadline beyond Verify.Timeout and the context's.
	TransformTimeout time.Duration
	// OnResult, when non-nil, is called once per transformation in input
	// order as verdicts become available (an out-of-order completion is
	// buffered until its predecessors finish). It runs on worker
	// goroutines under a lock: keep it cheap or copy out.
	OnResult func(index int, res Result)
	// Journal, when non-nil, makes the run crash-safe: transformations
	// whose hash is already journaled are restored without re-verifying
	// (Result.Resumed), and every fresh deterministic verdict is
	// appended and fsync'd as it completes. Open with CreateJournal (new
	// run) or OpenJournal (resume).
	Journal *Journal
	// Live, when non-nil, is the run's record, kept current as results
	// land — per-worker current transform, queue depth, verdict
	// tallies, counter totals, the last solver sample — for the
	// /debug/status endpoint and the /metrics series Live.WriteMetrics
	// writes. Nil gives the run a private one.
	Live *Live
}

// CorpusStats aggregates a corpus run.
type CorpusStats struct {
	Total     int // transformations submitted
	Completed int // transformations actually verified (not skipped or resumed)
	Valid     int
	Invalid   int
	Unknown   int // Unknown verdicts, including panics and skips
	Rejected  int
	Panics    int // Unknown verdicts with ReasonPanic
	// Cancelled counts Unknown verdicts with ReasonCancelled — work the
	// run never decided because it was interrupted, as opposed to
	// queries the solver genuinely gave up on.
	Cancelled int
	// Resumed counts verdicts restored from the journal instead of
	// re-verified.
	Resumed int
	// MemoryAborts counts verifications the memory governor stopped to
	// keep the live heap under Verify.MaxHeapBytes.
	MemoryAborts int
	// Escalations totals conflict-budget ladder retries across the
	// corpus.
	Escalations int
	// Interrupted is set when the context was cancelled or its deadline
	// expired before every transformation completed; the result slice
	// still has an entry per input (skipped ones carry ReasonCancelled).
	Interrupted bool
	Duration    time.Duration
	// Queries is the total number of solver queries issued across the
	// corpus; Counters aggregates every per-transform counter set.
	Queries  int
	Counters telemetry.Counters
	// PeakHeapBytes is the largest live-heap size observed by the
	// memory sampler while the corpus ran. It is a lower bound on the
	// true peak (spikes between samples are missed) but is stable
	// enough to track memory regressions across commits.
	PeakHeapBytes uint64
	// JournalError is the first journal append failure, if any; the
	// verdicts themselves are unaffected.
	JournalError error
}

// add folds one result into the verdict tallies and work totals.
func (s *CorpusStats) add(r Result) {
	switch r.Verdict {
	case Valid:
		s.Valid++
	case Invalid:
		s.Invalid++
	case Rejected:
		s.Rejected++
	default:
		s.Unknown++
		switch r.Reason {
		case ReasonPanic:
			s.Panics++
		case ReasonCancelled:
			s.Cancelled++
		}
	}
	s.Queries += r.Queries
	s.Escalations += r.Escalations
	s.Counters.Add(r.Counters)
}

// memSampleInterval is how often the corpus memory sampler probes the
// live heap — package-level so tests can tighten it.
var memSampleInterval = 250 * time.Millisecond

// RunCorpus verifies a corpus on a bounded worker pool. It is the
// fault-tolerant batch driver the paper's workflow needs: one
// pathological transformation can time out (TransformTimeout), crash
// (panic isolation in VerifyContext plus a worker-level backstop),
// exhaust memory (the MaxHeapBytes governor), or be cancelled (ctx)
// without taking down the run; every other verdict is still produced.
//
// Results are deterministic: results[i] is always transform ts[i]'s
// outcome, regardless of completion order, and OnResult streams them in
// input order. On interrupt the call returns promptly with partial
// results — transformations that never started carry verdict Unknown
// with ReasonCancelled (or ReasonDeadline when the context's deadline
// expired).
func RunCorpus(ctx context.Context, ts []*ir.Transform, opts CorpusOptions) ([]Result, CorpusStats) {
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ts) && len(ts) > 0 {
		workers = len(ts)
	}

	live := opts.Live
	if live == nil {
		live = NewLive()
	}
	live.begin(len(ts), workers)

	results := make([]Result, len(ts))
	done := make([]bool, len(ts))

	// Ordered streaming: flush advances through the done flags and emits
	// contiguous completed results.
	var mu sync.Mutex
	next := 0
	flush := func() {
		for next < len(ts) && done[next] {
			if opts.OnResult != nil {
				opts.OnResult(next, results[next])
			}
			next++
		}
	}
	// complete records worker's result for transform i, exactly once.
	// Lock order: mu, then the Live record's.
	complete := func(worker, i int, r Result) {
		if opts.Journal != nil && !r.Resumed {
			opts.Journal.Append(ts[i], r)
		}
		mu.Lock()
		defer mu.Unlock()
		if done[i] {
			// Idempotent: a worker-level recover after a normal
			// completion (a fault injected in a deferred finisher) must
			// not overwrite or recount the verdict already streamed.
			return
		}
		results[i] = r
		done[i] = true
		live.finish(worker, r)
		flush()
	}

	// Resume: restore journaled verdicts up front so the feed skips
	// them; the contiguous restored prefix streams immediately.
	skip := make([]bool, len(ts))
	if opts.Journal != nil {
		for i, t := range ts {
			if rec, ok := opts.Journal.Lookup(t); ok {
				results[i] = restoreResult(t, rec)
				done[i] = true
				skip[i] = true
				live.resume(results[i])
			}
		}
		mu.Lock()
		flush()
		mu.Unlock()
	}

	vopts := opts.Verify
	if opts.TransformTimeout > 0 && (vopts.Timeout <= 0 || opts.TransformTimeout < vopts.Timeout) {
		vopts.Timeout = opts.TransformTimeout
	}
	// Only a caller's Live hands solver samples on: a private record has
	// no reader, so its verifications skip the sampling cost.
	vopts.live = opts.Live

	// In-flight registry for the memory governor: verifications register
	// their stop flag on start (in dispatch order — seq is the "heaviest"
	// proxy: the longest-running verification has had the most time to
	// build solver state) and deregister on completion.
	var (
		imu         sync.Mutex
		inflightSeq int64
		inflight    = map[int64]*sat.StopFlag{}
		memAborts   int
	)
	if vopts.MaxHeapBytes > 0 {
		vopts.onStart = func(_ *ir.Transform, flag *sat.StopFlag) func() {
			imu.Lock()
			inflightSeq++
			id := inflightSeq
			inflight[id] = flag
			imu.Unlock()
			return func() {
				imu.Lock()
				delete(inflight, id)
				imu.Unlock()
			}
		}
	}

	// Memory sampler/governor: a coarse background probe of the live
	// heap. It always tracks the peak for the perf baseline; with a
	// budget set it also governs — when the live set stays over budget
	// even after a forced GC, it trips the earliest-started in-flight
	// verification's stop flag with StopOOM, converting a would-be
	// process OOM-kill into one structured Unknown (out-of-memory).
	var peakHeap uint64
	samplerDone := make(chan struct{})
	samplerStopped := make(chan struct{})
	go func() {
		defer close(samplerStopped)
		tick := time.NewTicker(memSampleInterval)
		defer tick.Stop()
		var ms runtime.MemStats
		sample := func() uint64 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
			return ms.HeapAlloc
		}
		govern := func() {
			if vopts.MaxHeapBytes == 0 || sample() <= vopts.MaxHeapBytes {
				return
			}
			// Over budget: give the collector one chance to prove the
			// pressure is garbage, not live state, before aborting work.
			runtime.GC()
			if sample() <= vopts.MaxHeapBytes {
				return
			}
			imu.Lock()
			var victim *sat.StopFlag
			var victimID int64
			for id, f := range inflight {
				if f.Stopped() {
					continue
				}
				if victim == nil || id < victimID {
					victim, victimID = f, id
				}
			}
			if victim != nil {
				victim.StopWith(sat.StopOOM)
				memAborts++
			}
			imu.Unlock()
		}
		sample()
		for {
			select {
			case <-samplerDone:
				sample()
				return
			case <-tick.C:
				govern()
			}
		}
	}()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wopts := vopts
			// Each worker gets its own telemetry track so spans from
			// concurrent transforms land on separate rows instead of
			// interleaving (Chrome-trace nesting is positional per tid).
			if wopts.Trace != nil && wopts.Track == nil {
				wopts.Track = wopts.Trace.NewTrack(fmt.Sprintf("worker-%d", worker))
			}
			for i := range jobs {
				// Worker-level backstop: VerifyContext contains panics
				// from the solving stack, but a fault in the worker loop
				// itself (the corpus-worker injection site, or a panic
				// escaping a deferred span finisher) must cost only this
				// transformation, never the pool.
				func() {
					defer func() {
						if r := recover(); r != nil {
							rr := Result{Transform: ts[i], Verdict: Unknown, GaveUpAssignment: -1}
							rr.setPanic("corpus worker", r)
							complete(worker, i, rr)
						}
					}()
					faultinject.Fire(faultinject.SiteCorpusWorker, nil)
					live.dispatch(worker, ts[i].Name)
					// Label the goroutine so CPU-profile samples attribute
					// to the transformation being verified.
					pprof.Do(ctx, pprof.Labels("transform", ts[i].Name), func(ctx context.Context) {
						complete(worker, i, VerifyContext(ctx, ts[i], wopts))
					})
				}()
			}
		}(w)
	}
feed:
	for i := range ts {
		if skip[i] {
			continue
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	close(samplerDone)
	<-samplerStopped

	// Fill skips (never dispatched, or dispatched results lost to a
	// cancelled feed — the latter cannot happen since workers drain the
	// channel, but the guard keeps the invariant local).
	skipReason := ReasonCancelled
	if ctx.Err() == context.DeadlineExceeded {
		skipReason = ReasonDeadline
	}
	stats := live.corpusStats()
	mu.Lock()
	for i := range results {
		if !done[i] {
			results[i] = Result{
				Transform:        ts[i],
				Verdict:          Unknown,
				Reason:           skipReason,
				GaveUpAssignment: -1,
			}
			done[i] = true
			stats.add(results[i])
		}
	}
	flush()
	mu.Unlock()

	imu.Lock()
	stats.MemoryAborts = memAborts
	imu.Unlock()
	stats.Interrupted = ctx.Err() != nil
	stats.Duration = time.Since(start)
	stats.PeakHeapBytes = peakHeap
	if opts.Journal != nil {
		stats.JournalError = opts.Journal.Err()
	}
	return results, stats
}
