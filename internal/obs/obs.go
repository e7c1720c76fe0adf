// Package obs is Rock's unified observability layer: one Registry of
// named counters, gauges and duration histograms plus an opt-in span
// ring (span.go), threaded through every execution layer (detect,
// chase, exec, ml predication, cluster/crystal). The paper's evaluation
// (§6, Figures 4(h)/4(l)) is driven by per-phase, per-round measurements
// — detection vs. chase wall clock, rounds to fixpoint, ML-call counts,
// worker utilization and steal rates — and this package is the single
// source of truth those measurements are read from: chase.Report and
// rock.Report fields are views over a Registry, the -metrics-out flag
// dumps its Snapshot, and the bench/ ledger reads the same counters.
//
// Every recording path is safe for concurrent use (atomic counters and
// gauges, lock-striped maps are unnecessary at this fan-in: handle
// lookup takes an RLock and the hot paths hold on to handles). All
// methods are nil-receiver safe, so instrumented code never needs a
// nil check: a nil *Registry records nothing at negligible cost.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that may move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histWindow bounds a histogram's sample memory: once full, new samples
// overwrite the oldest slot (sliding window), so quantiles describe the
// most recent histWindow observations while count/sum/max stay exact
// over the full run. Deterministic — no sampling randomness.
const histWindow = 4096

// Histogram records durations and reports count, sum, max and p50/p95
// over a bounded sliding window of samples.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	max     time.Duration
	samples []time.Duration // ring of up to histWindow entries
	next    int             // overwrite cursor once the ring is full
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < histWindow {
		h.samples = append(h.samples, d)
	} else {
		h.samples[h.next] = d
		h.next = (h.next + 1) % histWindow
	}
	h.mu.Unlock()
}

// HistogramStat is a histogram's exported summary. Durations are
// nanoseconds in the JSON encoding.
type HistogramStat struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
}

// Stat summarises the histogram (zero value for nil).
func (h *Histogram) Stat() HistogramStat {
	if h == nil {
		return HistogramStat{}
	}
	h.mu.Lock()
	st := HistogramStat{Count: h.count, Sum: h.sum, Max: h.max}
	sorted := append([]time.Duration(nil), h.samples...)
	h.mu.Unlock()
	if len(sorted) > 0 {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.P50 = quantile(sorted, 0.50)
		st.P95 = quantile(sorted, 0.95)
	}
	return st
}

// quantile reads the q-th quantile from an ascending sample slice using
// the nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Registry is the metric/trace store one run threads through its layers.
// The zero value is not usable; call New. A nil *Registry is a valid
// no-op sink for every method.
type Registry struct {
	start time.Time

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// sp is the hierarchical span ring (span.go); disabled until
	// EnableSpans, so default runs pay one atomic load per StartSpan.
	sp spanRing
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter handle, creating it on first use.
// Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n uint64) { r.Counter(name).Add(n) }

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Counter(name).Add(1) }

// CounterValue reads the named counter (0 when absent or nil registry).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// Gauge returns the named gauge handle, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// SetGauge stores v under the named gauge.
func (r *Registry) SetGauge(name string, v int64) { r.Gauge(name).Set(v) }

// Histogram returns the named histogram handle, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe records a duration under the named histogram.
func (r *Registry) Observe(name string, d time.Duration) { r.Histogram(name).Observe(d) }

// Snapshot is a point-in-time, JSON-serialisable export of a registry:
// what -metrics-out writes and what Report.Metrics carries.
type Snapshot struct {
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
	// Spans are the retained completed trace spans (EnableSpans runs
	// only; empty otherwise) and DroppedSpans counts ring evictions.
	Spans        []SpanRecord `json:"spans,omitempty"`
	DroppedSpans uint64       `json:"dropped_spans,omitempty"`
}

// Snapshot exports every metric and the retained spans. Safe to call
// concurrently with recording; the result is internally consistent per
// metric (not across metrics). Returns the zero Snapshot for nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramStat),
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Stat()
	}
	snap.Spans = r.Spans()
	snap.DroppedSpans = r.DroppedSpans()
	return snap
}

// WriteJSON writes the snapshot, indented, to w.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
