// Package faultinject is a deterministic, seed-driven fault-injection
// framework for proving the verification pipeline's failure semantics
// under adversarial conditions. Named injection sites sit at every
// pipeline seam (parser, typing, vcgen, presolve, bit-blasting, CNF
// preprocessing, CDCL propagate/decide, CEGIS rounds, telemetry sinks,
// corpus workers); an armed Plan schedules faults — panics, premature
// StopFlag flips, simulated deadline expiry, simulated allocation
// failure, delayed completion — against the Nth execution of a site.
//
// The framework is compiled out of release builds: without the `chaos`
// build tag, Fire is an empty function the compiler inlines away, so
// hot paths (the CDCL propagation loop polls a site) carry zero cost.
// `go test -tags chaos` enables the machinery; the chaos suite in
// internal/verify drives it over hundreds of seeded schedules.
//
// Schedules are deterministic: the same seed always produces the same
// Plan, and site hit counters make each scheduled fault fire at a
// reproducible execution count (which *goroutine* reaches that count
// first still depends on scheduling, so chaos assertions are invariant
// based, not trace based).
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point in the pipeline.
type Site string

// The injection sites, one per pipeline seam.
const (
	// SiteParser fires at the top of every parse; the parser's panic
	// recovery must turn an injected panic into an ordinary parse error.
	SiteParser Site = "parser"
	// SiteTyping fires at the top of type inference.
	SiteTyping Site = "typing"
	// SiteVCGen fires at the top of verification-condition encoding.
	SiteVCGen Site = "vcgen"
	// SitePresolve fires in the solver façade before the ring presolve
	// (absint.RingEqual) of each satisfiability query.
	SitePresolve Site = "absint-presolve"
	// SiteBitblast fires at the bit-blaster's periodic stop poll.
	SiteBitblast Site = "bitblast"
	// SitePreprocess fires at the top of every CNF preprocessing round.
	SitePreprocess Site = "cnf-preprocess"
	// SitePropagate fires at the CDCL search loop's periodic stop poll.
	SitePropagate Site = "cdcl-propagate"
	// SiteDecide fires before every CDCL branching decision.
	SiteDecide Site = "cdcl-decide"
	// SiteCEGIS fires at the top of every CEGIS refinement round.
	SiteCEGIS Site = "cegis-round"
	// SiteTelemetry fires when a telemetry span is recorded into its
	// tracer — the telemetry sink seam.
	SiteTelemetry Site = "telemetry-sink"
	// SiteCorpusWorker fires in the corpus worker loop, outside
	// VerifyContext's own panic isolation; the worker-level recover must
	// contain it.
	SiteCorpusWorker Site = "corpus-worker"
)

// Sites lists every injection site in a fixed order.
func Sites() []Site {
	return []Site{
		SiteParser, SiteTyping, SiteVCGen, SitePresolve, SiteBitblast,
		SitePreprocess, SitePropagate, SiteDecide, SiteCEGIS,
		SiteTelemetry, SiteCorpusWorker,
	}
}

// Kind is the failure mode a fault forces.
type Kind uint8

// Failure modes.
const (
	// KindPanic panics with an Injected value — the pipeline's panic
	// isolation must contain it and surface Unknown (injected-fault).
	KindPanic Kind = iota
	// KindOOM panics with an Injected{OOM: true} value, simulating an
	// allocation failure; it must surface as Unknown (out-of-memory).
	KindOOM
	// KindStop flips the in-flight verification's StopFlag prematurely;
	// it must surface as Unknown (injected-fault).
	KindStop
	// KindDeadline flips the StopFlag classified as a deadline expiry;
	// it must surface as Unknown (deadline).
	KindDeadline
	// KindDelay sleeps briefly — completion is delayed but the verdict
	// must be unchanged.
	KindDelay
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindOOM:
		return "oom"
	case KindStop:
		return "stop"
	case KindDeadline:
		return "deadline"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one scheduled event: at the Hit-th execution of Site
// (1-based, counted across all goroutines), force Kind.
type Fault struct {
	Site  Site
	Kind  Kind
	Hit   int64
	Delay time.Duration // KindDelay only
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%s#%d", f.Kind, f.Site, f.Hit)
}

// Injected is the panic value thrown by KindPanic and KindOOM faults.
// Panic handlers detect it with AsInjected and classify the Unknown
// accordingly instead of reporting an internal panic.
type Injected struct {
	Site Site
	OOM  bool
}

func (i Injected) String() string {
	if i.OOM {
		return fmt.Sprintf("injected allocation failure at %s", i.Site)
	}
	return fmt.Sprintf("injected panic at %s", i.Site)
}

// AsInjected reports whether a recovered panic value is an injected
// fault.
func AsInjected(r any) (Injected, bool) {
	i, ok := r.(Injected)
	return i, ok
}

// Stopper is the cooperative-cancellation handle a seam passes to Fire
// so KindStop / KindDeadline faults can flip the in-flight
// verification's stop flag. *sat.StopFlag implements it; sites with no
// flag in scope pass nil and receive only panic/OOM/delay kinds.
type Stopper interface {
	// InjectStop trips the flag, classified downstream as an injected
	// fault.
	InjectStop()
	// InjectDeadline trips the flag, classified downstream as a
	// deadline expiry.
	InjectDeadline()
}

// stopCapable marks the sites whose Fire call receives a usable
// Stopper; RandomPlan schedules KindStop/KindDeadline only there.
var stopCapable = map[Site]bool{
	SitePresolve:   true,
	SiteBitblast:   true,
	SitePreprocess: true,
	SitePropagate:  true,
	SiteDecide:     true,
	SiteCEGIS:      true,
}

// StopCapable reports whether KindStop/KindDeadline faults can act at
// the site.
func StopCapable(s Site) bool { return stopCapable[s] }

// siteSched is one site's armed schedule plus its execution counter.
type siteSched struct {
	hits  atomic.Int64
	byHit map[int64][]Fault
}

// Plan is an armed fault schedule. Build one with NewPlan or
// RandomPlan, arm it with Activate, and read back what actually
// happened with Fired. A Plan is safe for concurrent use; each
// scheduled fault fires at most once.
type Plan struct {
	seed   uint64
	faults []Fault
	sites  map[Site]*siteSched

	mu    sync.Mutex
	fired []Fault
}

// NewPlan arms an explicit fault list.
func NewPlan(faults []Fault) *Plan {
	p := &Plan{faults: append([]Fault(nil), faults...), sites: map[Site]*siteSched{}}
	for _, f := range p.faults {
		sc := p.sites[f.Site]
		if sc == nil {
			sc = &siteSched{byHit: map[int64][]Fault{}}
			p.sites[f.Site] = sc
		}
		sc.byHit[f.Hit] = append(sc.byHit[f.Hit], f)
	}
	return p
}

// maxHit scales the scheduled hit number to how often a site executes:
// inner-loop sites (CDCL polls, decisions, telemetry spans) run
// thousands of times per corpus, control sites a handful of times per
// transform.
func maxHit(s Site) int64 {
	switch s {
	case SitePropagate, SiteDecide:
		return 2048
	case SiteTelemetry:
		return 512
	case SitePresolve, SiteBitblast, SitePreprocess, SiteCEGIS:
		return 96
	default:
		return 24
	}
}

// splitmix64 is the PRNG behind RandomPlan: tiny, stateless across Go
// releases (unlike math/rand defaults), and good enough for schedule
// diversity.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d9aaedfe762a45
	return z ^ (z >> 31)
}

// RandomPlan derives a deterministic schedule of n faults from seed.
// Panic/OOM/delay kinds land on any in-pipeline site; stop/deadline
// kinds only on stop-capable sites. The parser site is excluded (corpus
// runs verify pre-parsed transforms); chaos tests cover it directly.
func RandomPlan(seed uint64, n int) *Plan {
	sites := Sites()[1:] // skip SiteParser
	state := seed
	var faults []Fault
	for i := 0; i < n; i++ {
		site := sites[splitmix64(&state)%uint64(len(sites))]
		kind := Kind(splitmix64(&state) % uint64(numKinds))
		if (kind == KindStop || kind == KindDeadline) && !stopCapable[site] {
			kind = KindPanic
		}
		f := Fault{
			Site: site,
			Kind: kind,
			Hit:  1 + int64(splitmix64(&state)%uint64(maxHit(site))),
		}
		if kind == KindDelay {
			f.Delay = time.Duration(1+splitmix64(&state)%20) * time.Millisecond
		}
		faults = append(faults, f)
	}
	p := NewPlan(faults)
	p.seed = seed
	return p
}

// Seed returns the seed a RandomPlan was derived from (0 for NewPlan).
func (p *Plan) Seed() uint64 { return p.seed }

// Faults returns the full schedule, sorted by site then hit.
func (p *Plan) Faults() []Fault {
	out := append([]Fault(nil), p.faults...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Hit < out[j].Hit
	})
	return out
}

// Fired returns the faults that have actually fired so far, in firing
// order.
func (p *Plan) Fired() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Fault(nil), p.fired...)
}

// fire is the chaos-build implementation behind Fire.
func (p *Plan) fire(site Site, s Stopper) {
	sc := p.sites[site]
	if sc == nil {
		return
	}
	n := sc.hits.Add(1)
	fs := sc.byHit[n]
	if len(fs) == 0 {
		return
	}
	for _, f := range fs {
		p.mu.Lock()
		p.fired = append(p.fired, f)
		p.mu.Unlock()
		switch f.Kind {
		case KindDelay:
			time.Sleep(f.Delay)
		case KindStop:
			if s != nil {
				s.InjectStop()
			}
		case KindDeadline:
			if s != nil {
				s.InjectDeadline()
			}
		case KindOOM:
			panic(Injected{Site: site, OOM: true})
		case KindPanic:
			panic(Injected{Site: site})
		}
	}
}

// active is the armed plan; nil means injection is dormant even in
// chaos builds.
var active atomic.Pointer[Plan]

// Activate arms a plan globally. In non-chaos builds the plan is stored
// but Fire never consults it (Enabled reports which build this is, so
// tests can skip).
func Activate(p *Plan) { active.Store(p) }

// Deactivate disarms injection.
func Deactivate() { active.Store(nil) }
