// Package metrics is the live-observability layer on top of
// internal/telemetry: a concurrency-safe registry of named gauges,
// histograms, and telemetry counter blocks with a Prometheus
// text-exposition encoder (prometheus.go), per-query ring buffers of solver search snapshots
// (ring.go), a post-mortem flight recorder for hard queries (flight.go),
// and the HTTP debug server behind `alive -debug-addr` (http.go).
//
// Where internal/telemetry answers "what did this run do" after the
// fact (spans, counter totals, histograms rendered at exit), this
// package answers "what is it doing right now" and "what was it doing
// when it died". It deliberately depends only on the standard library
// and internal/telemetry so every layer above the SAT core can feed it
// without import cycles; internal/sat itself stays metrics-free and is
// sampled through the sat.Solver.OnSample hook.
package metrics

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"alive/internal/telemetry"
)

// A Gauge is an instantaneous int64 value (queue depth, trail size).
// All methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (d may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricKind int

const (
	kindGauge metricKind = iota
	kindCounter
	kindHistogram
)

// metric is one registered series family: exactly one of gauge,
// gaugeFn, or histFn is set. Function-backed metrics are
// evaluated at scrape time under no registry lock, so their closures
// must be safe to call concurrently with writers.
type metric struct {
	name    string
	help    string
	kind    metricKind
	gauge   *Gauge
	gaugeFn func() int64
	histFn  func() telemetry.Histogram
}

// Registry is a set of named metrics encodable as Prometheus text. The
// zero value is not usable; call NewRegistry. Registration is
// idempotent by name; registering the same name with a different shape
// panics (a programming error, like a duplicate flag).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// collectors expand a telemetry.Counters snapshot into one counter
	// series per field at scrape time, so the 32-field pipeline counter
	// block surfaces without 32 registration calls.
	collectors []countersCollector
}

type countersCollector struct {
	prefix string
	help   string
	fn     func() telemetry.Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) *metric {
	if !validName(m.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[m.name]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", m.name))
		}
		return old
	}
	r.metrics[m.name] = m
	return m
}

// Gauge registers (or returns the existing) gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by f at scrape
// time. f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gaugeFn: f})
}

// HistogramFunc registers a histogram whose snapshot is produced by f
// at scrape time — typically a locked copy or a Merge over per-worker
// telemetry.Histogram values. f must be safe for concurrent use.
func (r *Registry) HistogramFunc(name, help string, f func() telemetry.Histogram) {
	r.register(&metric{name: name, help: help, kind: kindHistogram, histFn: f})
}

// CountersFunc registers a collector that expands the
// telemetry.Counters snapshot returned by f into one counter series per
// field, named prefix_<field>. f must be safe for concurrent use.
func (r *Registry) CountersFunc(prefix, help string, f func() telemetry.Counters) {
	if !validName(prefix) {
		panic(fmt.Sprintf("metrics: invalid counters prefix %q", prefix))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, countersCollector{prefix: prefix, help: help, fn: f})
}

// RegisterProcessMetrics adds the process-level gauges every debug
// endpoint wants: live heap bytes and goroutine count.
func (r *Registry) RegisterProcessMetrics(prefix string) {
	r.GaugeFunc(prefix+"_heap_bytes", "Live heap allocation (runtime.MemStats.HeapAlloc).", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	r.GaugeFunc(prefix+"_goroutines", "Current goroutine count.", func() int64 {
		return int64(runtime.NumGoroutine())
	})
}

// snapshot returns the registered metrics sorted by name plus the
// collector list, so encoding can proceed without holding the lock
// (function-backed metrics may be arbitrarily slow).
func (r *Registry) snapshot() ([]*metric, []countersCollector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	cs := make([]countersCollector, len(r.collectors))
	copy(cs, r.collectors)
	return ms, cs
}

// validName reports whether s is a legal Prometheus metric name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
