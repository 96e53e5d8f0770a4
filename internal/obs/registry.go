package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-receiver safe no-ops so uninstrumented components pay nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value (resident bytes, queue
// depth, F-measure).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer gauge value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add accumulates delta into the gauge (CAS loop, safe under concurrent
// writers). Used for per-phase budget-attribution sums, which grow but are
// not counters (they hold fractional seconds).
func (g *Gauge) Add(delta float64) {
	if g == nil || delta == 0 {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram over float64 observations
// (seconds, for every latency histogram in the stack). Buckets are
// cumulative-upper-bound style: bucket i counts observations ≤ bounds[i],
// with one implicit overflow bucket. Observation is a couple of atomic
// adds; snapshots are consistent enough for monitoring (not transactional
// across fields).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	maxv   atomic.Uint64 // float64 bits
}

// DefaultLatencyBuckets spans 50µs to 10s exponentially — wide enough for
// both sub-millisecond in-memory phases and throttled multi-second region
// loads, bracketing the paper's 500 ms interactivity bound.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. NaN is dropped; negative values clamp to 0.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxv.Load()
		// Observations are clamped non-negative, so the zero initial max
		// is a valid floor.
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxv.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	// Buckets holds cumulative counts aligned with Bounds plus a final
	// +Inf overflow entry.
	Buckets []int64 `json:"buckets"`
}

// Snapshot summarizes the histogram. Percentiles are estimated as the
// upper bound of the bucket containing the nearest-rank sample, clamped to
// the exact observed maximum (so a histogram never reports a percentile
// above a value it has seen).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Max:     math.Float64frombits(h.maxv.Load()),
		Buckets: make([]int64, len(h.counts)),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = h.quantile(s, 0.50)
	s.P95 = h.quantile(s, 0.95)
	s.P99 = h.quantile(s, 0.99)
	return s
}

// quantile estimates the q-quantile from cumulative bucket counts: the
// upper bound of the bucket holding the nearestRank sample.
func (h *Histogram) quantile(s HistogramSnapshot, q float64) float64 {
	rank := int64(nearestRank(q, int(s.Count)))
	for i, cum := range s.Buckets {
		if cum >= rank {
			if i < len(h.bounds) {
				return math.Min(h.bounds[i], s.Max)
			}
			return s.Max // overflow bucket: best estimate is the max
		}
	}
	return s.Max
}

// Registry names and owns instruments. Instrument lookup takes a mutex
// (create-once, typically at Open time); updates afterwards are pure
// atomics. A nil *Registry hands out nil instruments, which no-op.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls keep the original buckets; nil
// bounds select DefaultLatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument, with deterministic
// (sorted) iteration order via the SortedX accessors.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all instruments. Safe to call concurrently with
// updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range ctrs {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// sortedKeys returns map keys in lexical order for deterministic export.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
