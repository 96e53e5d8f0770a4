package obs

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// DefaultSLOBudget is the paper's interactivity bound: every exploration
// step should complete within ~500 ms (DESIGN.md §2).
const DefaultSLOBudget = 500 * time.Millisecond

// DefaultSLOWindow is the rolling-window size for step-latency
// percentiles: large enough to smooth one slow step, small enough that
// the percentiles track the current workload, not the whole run.
const DefaultSLOWindow = 512

// SLO accounts step latencies against the interactivity budget. It keeps
// a rolling window of recent step latencies for p50/p95/p99 gauges, a
// violation counter, and — for violating steps — accumulates per-phase
// durations so the budget overrun is attributable to a phase without
// reading traces. A nil *SLO no-ops everywhere.
type SLO struct {
	budget time.Duration
	reg    *Registry

	mu     sync.Mutex
	ring   []time.Duration // recent step latencies, circular
	sorted []time.Duration // the latencies in the window, ascending
	next   int

	cSteps *Counter
	cViol  *Counter
	gP50   *Gauge
	gP95   *Gauge
	gP99   *Gauge
}

// NewSLO builds an accountant on reg. budget<=0 selects DefaultSLOBudget;
// window<=0 selects DefaultSLOWindow. A nil registry still yields a
// working accountant (percentiles queryable, no exported metrics).
func NewSLO(reg *Registry, budget time.Duration, window int) *SLO {
	if budget <= 0 {
		budget = DefaultSLOBudget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	s := &SLO{
		budget: budget,
		reg:    reg,
		ring:   make([]time.Duration, window),
		sorted: make([]time.Duration, 0, window),
		cSteps: reg.Counter("uei_slo_steps_total"),
		cViol:  reg.Counter("slo_violations_total"),
		gP50:   reg.Gauge("uei_step_latency_p50_seconds"),
		gP95:   reg.Gauge("uei_step_latency_p95_seconds"),
		gP99:   reg.Gauge("uei_step_latency_p99_seconds"),
	}
	reg.Gauge("uei_slo_budget_seconds").Set(budget.Seconds())
	return s
}

// Budget returns the per-step budget (0 for a nil accountant).
func (s *SLO) Budget() time.Duration {
	if s == nil {
		return 0
	}
	return s.budget
}

// ObserveStep records one completed step. phases is the step trace's
// per-phase durations (Trace.PhaseTotals); it is only consulted when the
// step violates the budget, to attribute the overrun.
func (s *SLO) ObserveStep(d time.Duration, phases map[string]time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	// The window is kept sorted beside the ring: the sample leaving it is
	// deleted and the new one inserted, each found by binary search, so a
	// step sorts nothing and allocates nothing. Negative durations are
	// clamped to zero, as Samples.Observe clamps them.
	d = max(d, 0)
	if len(s.sorted) == len(s.ring) {
		i, _ := slices.BinarySearch(s.sorted, s.ring[s.next])
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(s.sorted, d)
	s.sorted = slices.Insert(s.sorted, i, d)
	s.ring[s.next] = d
	s.next = (s.next + 1) % len(s.ring)
	p50, p95, p99 := s.percentilesLocked()
	s.mu.Unlock()

	s.cSteps.Inc()
	s.gP50.Set(p50)
	s.gP95.Set(p95)
	s.gP99.Set(p99)
	if d > s.budget {
		s.cViol.Inc()
		for phase, pd := range phases {
			s.reg.Gauge(fmt.Sprintf("slo_violation_phase_seconds{phase=%q}", phase)).Add(pd.Seconds())
		}
	}
}

// Percentiles returns the rolling-window p50/p95/p99 step latencies in
// seconds. With zero samples all three are 0; with one sample all three
// are that sample (nearest-rank).
func (s *SLO) Percentiles() (p50, p95, p99 float64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.percentilesLocked()
}

// percentilesLocked summarizes the current window contents by the
// nearest-rank rule Samples.Quantile applies.
func (s *SLO) percentilesLocked() (p50, p95, p99 float64) {
	at := func(q float64) float64 {
		if rank := nearestRank(q, len(s.sorted)); rank > 0 {
			return s.sorted[rank-1].Seconds()
		}
		return 0
	}
	return at(0.50), at(0.95), at(0.99)
}

// Violations returns the total violation count so far (0 for nil).
func (s *SLO) Violations() int64 {
	if s == nil {
		return 0
	}
	return s.cViol.Value()
}

// Steps returns the total observed step count so far (0 for nil).
func (s *SLO) Steps() int64 {
	if s == nil {
		return 0
	}
	return s.cSteps.Value()
}
