package obs

import (
	"fmt"
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

	mu   sync.Mutex
	ring []time.Duration // recent step latencies, circular
	next int
	n    int

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
	s.ring[s.next] = d
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
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

// percentilesLocked summarizes the current window contents.
func (s *SLO) percentilesLocked() (p50, p95, p99 float64) {
	w := Samples{d: make([]time.Duration, 0, s.n)}
	for _, d := range s.ring[:s.n] {
		w.Observe(d)
	}
	return w.Quantile(0.50).Seconds(), w.Quantile(0.95).Seconds(), w.Quantile(0.99).Seconds()
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
