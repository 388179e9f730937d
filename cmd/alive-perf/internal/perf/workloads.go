package perf

import (
	"context"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"time"

	"alive/internal/attrs"
	"alive/internal/bv"
	"alive/internal/ir"
	"alive/internal/miniir"
	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// Workload is one set of inputs the benchmark runs, in a closed loop: a
// client sends its next item only after the previous one has finished.
type Workload struct {
	Name    string
	Clients int
	// Watchdog cancels a round that runs this long, about five times a
	// full-size round's wall time on a 2-CPU machine.
	Watchdog time.Duration
	// inputs picks the corpus entries the workload is set up from; it is
	// not part of the timed set-up.
	inputs func(cfg Config) []suite.Entry
	setup  func(es []suite.Entry, cfg Config, track *telemetry.Track) instance
}

// instance is a workload set up for a run.
type instance interface {
	// round runs and checks one round. With tr non-nil it records the
	// pipeline's spans on tr and the benchmark's own on track.
	round(ctx context.Context, tr *telemetry.Tracer, track *telemetry.Track) *roundResult
}

// Workloads lists the workloads in the order alive-perf runs them.
// BENCHMARK.json records why each was chosen.
var Workloads = []*Workload{
	// The CI configuration: one client waiting on each verdict, with CDCL
	// dominating the wall time.
	corpusWorkload("corpus-narrow", 30*time.Second, 1, true,
		verify.Options{Widths: []int{4, 8}, MaxAssignments: 4}),
	// What `alive file.opt` runs: the CLI's defaults on two clients, in
	// the corpus's file order. With two workers the order decides which
	// transforms run side by side, so a permuted order would make the
	// wall time depend on the seed.
	corpusWorkload("corpus-wide", 90*time.Second, 2, false,
		verify.Options{Widths: []int{1, 4, 8, 16, 32, 64}, MaxAssignments: 16, DivMulMaxWidth: 8}),
	// Attribute inference (paper §6.3): many nearly identical, mostly
	// failing verifier queries.
	{Name: "attr-infer", Clients: 1, Watchdog: 30 * time.Second, inputs: attrInputs, setup: setupAttrInfer},
	// The generated peephole pass (paper §6.4), which calls no solver.
	{Name: "optimizer", Clients: 1, Watchdog: 20 * time.Second, inputs: optimizerInputs, setup: setupOptimizer},
}

// Lookup returns the named workload, or nil.
func Lookup(name string) *Workload {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// pick returns, in corpus order, the first n corpus entries that keep
// accepts, or all of them when n is 0.
func pick(n int, keep func(suite.Entry) bool) []suite.Entry {
	var es []suite.Entry
	for _, e := range suite.All() {
		if keep(e) && (n == 0 || len(es) < n) {
			es = append(es, e)
		}
	}
	return es
}

// shuffle permutes es in an order the seed decides.
func shuffle(es []suite.Entry, seed int64) []suite.Entry {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// parse parses a corpus entry inside a parser span.
func parse(e suite.Entry, track *telemetry.Track) *ir.Transform {
	span := track.Start("parse", "parse")
	defer span.End()
	return e.Parse()
}

// corpus verifies the corpus with verify.RunCorpus, one client per worker.
type corpus struct {
	opts    verify.Options
	workers int
	ts      []*ir.Transform
	invalid []bool // the hand-written expectation for each of ts
}

func corpusWorkload(name string, watchdog time.Duration, workers int, permute bool, opts verify.Options) *Workload {
	return &Workload{
		Name:     name,
		Clients:  workers,
		Watchdog: watchdog,
		inputs: func(cfg Config) []suite.Entry {
			es := pick(cfg.Size.Transforms, func(suite.Entry) bool { return true })
			if permute {
				es = shuffle(es, cfg.Seed)
			}
			return es
		},
		setup: func(es []suite.Entry, _ Config, track *telemetry.Track) instance {
			c := &corpus{opts: opts, workers: workers}
			for _, e := range es {
				c.ts = append(c.ts, parse(e, track))
				c.invalid = append(c.invalid, wantInvalid(e.Name, opts.Widths))
			}
			return c
		},
	}
}

func (c *corpus) round(ctx context.Context, tr *telemetry.Tracer, track *telemetry.Track) *roundResult {
	opts := c.opts
	opts.Trace = tr
	rr := &roundResult{attempted: len(c.ts)}
	rr.begin()
	span := track.Start("round", "bench")
	results, stats := verify.RunCorpus(ctx, c.ts, verify.CorpusOptions{Verify: opts, Workers: c.workers})
	span.End()
	rr.end()

	var busy time.Duration
	raw := map[string]int64{"queries": int64(stats.Queries), "escalations": int64(stats.Escalations)}
	stats.Counters.Each(func(name string, v int64) { raw[name] = v })
	for i, r := range results {
		rr.items = append(rr.items, r.Duration)
		busy += r.Duration
		raw["type_assignments"] += int64(r.TypeAssignments)
		want := verify.Valid
		if c.invalid[i] {
			want = verify.Invalid
		}
		if r.Verdict != want {
			rr.fail("%s: verdict %s (%s), want %s", r.Transform.Name, r.Verdict, r.Reason, want)
		}
	}
	rr.idle = time.Duration(c.workers)*rr.wall - busy
	rr.counts = layerCounts(raw)
	return rr
}

// attrInfer runs attrs.Infer over the valid corpus entries: paper §6.3.
type attrInfer struct {
	ts []*ir.Transform
}

var attrOpts = verify.Options{Widths: []int{4}, MaxAssignments: 4}

// attrInputs keeps the valid entries with an attribute position, a binary
// operator that takes nsw, nuw or exact. On the others attrs.Infer
// returns without a verifier call, and its time would be noise.
func attrInputs(cfg Config) []suite.Entry {
	return shuffle(pick(cfg.Size.Transforms, func(e suite.Entry) bool {
		if e.WantInvalid {
			return false
		}
		t := e.Parse()
		for _, in := range append(slices.Clone(t.Source), t.Target...) {
			if b, ok := in.(*ir.BinOp); ok && ir.ValidFlags(b.Op) != 0 {
				return true
			}
		}
		return false
	}), cfg.Seed)
}

func setupAttrInfer(es []suite.Entry, _ Config, track *telemetry.Track) instance {
	a := &attrInfer{}
	for _, e := range es {
		a.ts = append(a.ts, parse(e, track))
	}
	return a
}

func (a *attrInfer) round(ctx context.Context, tr *telemetry.Tracer, track *telemetry.Track) *roundResult {
	opts := attrOpts
	// The verifier's spans nest under the benchmark's infer span.
	opts.Trace, opts.Track = tr, track
	rr := &roundResult{attempted: len(a.ts)}
	checks := 0
	before := len(tr.Events())
	rr.begin()
	for _, t := range a.ts {
		if ctx.Err() != nil {
			rr.fail("%s: cancelled by the watchdog", t.Name)
			continue
		}
		span := track.Start("infer", "attrs")
		start := time.Now()
		res, err := attrs.Infer(t, opts)
		rr.items = append(rr.items, time.Since(start))
		span.End()
		if err != nil {
			rr.fail("%v", err)
			continue
		}
		checks += res.Checks
	}
	rr.end()
	rr.counts = map[string]float64{"attrs.calls": float64(len(rr.items)), "attrs.checks": float64(checks)}
	if tr != nil {
		// attrs.Infer returns no verifier counters; each verification's
		// transform span carries them.
		maps.Copy(rr.counts, layerCounts(transformCounters(tr.Events()[before:])))
	}
	return rr
}

// transformCounters sums the integer annotations of the verifier's
// per-transform spans, which hold its counters.
func transformCounters(events []telemetry.Event) map[string]int64 {
	raw := map[string]int64{}
	for _, ev := range events {
		if ev.Cat != "transform" {
			continue
		}
		for _, a := range ev.Args {
			if v, ok := a.Val.(int64); ok {
				raw[a.Key] += v
			}
		}
	}
	return raw
}

// optimizer runs the corpus, compiled to mini-IR matchers, as a peephole
// pass over a generated module: paper §6.4.
type optimizer struct {
	cts   []*miniir.CompiledTransform
	funcs int
	seed  int64
}

const instrsPerFunc = 60

// explicitType matches an integer type written in a template, such as
// the i1 of `mul i1 %x, %y`.
var explicitType = regexp.MustCompile(`\bi[0-9]+\b`)

// optimizerInputs keeps the valid entries, in corpus order, which decides
// which of several matching transforms fires: they are the program, not
// its input. miniir's matchers ignore written types, so a transform
// verified only at i1 or i8 would fire, wrongly, at every width the
// generator emits, and the round's refinement check fails; those are
// left out.
func optimizerInputs(Config) []suite.Entry {
	return pick(0, func(e suite.Entry) bool {
		return !e.WantInvalid && !explicitType.MatchString(e.Text)
	})
}

func setupOptimizer(es []suite.Entry, cfg Config, track *telemetry.Track) instance {
	o := &optimizer{funcs: cfg.Size.Funcs, seed: cfg.Seed}
	for _, e := range es {
		t := parse(e, track)
		span := track.Start("compile", "compile")
		ct, err := miniir.Compile(t)
		span.End()
		if err == nil { // memory and undef patterns have no mini-IR matcher
			o.cts = append(o.cts, ct)
		}
	}
	return o
}

// reference is an input of an unoptimized function and its result there.
type reference struct {
	in      []bv.Vec
	want    miniir.ExecValue
	defined bool
}

func (o *optimizer) round(ctx context.Context, tr *telemetry.Tracer, track *telemetry.Track) *roundResult {
	m := miniir.Generate(miniir.GenConfig{Funcs: o.funcs, InstrsPerFunc: instrsPerFunc, Seed: o.seed})
	rr := &roundResult{attempted: len(m.Funcs)}
	instrsIn, costIn := m.NumInstrs(), m.Cost()
	rng := rand.New(rand.NewSource(o.seed))
	refs := make([]reference, len(m.Funcs))
	for i, f := range m.Funcs {
		in := miniir.RandomInputs(f, rng)
		want, err := miniir.Interpret(f, in)
		refs[i] = reference{in, want, err == nil}
	}
	pass := miniir.NewPass(o.cts)
	fired := 0

	rr.begin()
	for _, f := range m.Funcs {
		if ctx.Err() != nil {
			break
		}
		span := track.Start("pass", "pass")
		start := time.Now()
		fired += pass.RunFunction(f)
		rr.items = append(rr.items, time.Since(start))
		span.End()
	}
	rr.end()

	for i, f := range m.Funcs {
		ref := refs[i]
		if i >= len(rr.items) {
			rr.fail("%s: cancelled by the watchdog", f.Name)
			continue
		}
		if err := f.Verify(); err != nil {
			rr.fail("optimized %v", err)
			continue
		}
		if !ref.defined {
			continue // no defined result to refine
		}
		got, err := miniir.Interpret(f, ref.in)
		switch {
		case err != nil:
			rr.fail("%s: optimized function is undefined where the original is not: %v", f.Name, err)
		case ref.want.Poison:
			// A poison result may be refined to any value.
		case got.Poison:
			rr.fail("%s: optimization introduced poison", f.Name)
		case !got.V.Eq(ref.want.V):
			rr.fail("%s: optimization changed the result from %s to %s", f.Name, ref.want.V, got.V)
		}
	}
	rr.counts = map[string]float64{
		"miniir.fired":      float64(fired),
		"miniir.instrs_in":  float64(instrsIn),
		"miniir.instrs_out": float64(m.NumInstrs()),
		"miniir.cost_ratio": float64(m.Cost()) / float64(costIn),
	}
	return rr
}
