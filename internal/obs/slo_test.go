package obs

import (
	"math"
	"testing"
	"time"
)

func TestSLODefaults(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, 0, 0)
	if s.Budget() != DefaultSLOBudget {
		t.Errorf("budget = %v, want %v", s.Budget(), DefaultSLOBudget)
	}
	if v := reg.Gauge("uei_slo_budget_seconds").Value(); v != DefaultSLOBudget.Seconds() {
		t.Errorf("budget gauge = %v", v)
	}
}

// TestSLOPercentilesEdgeCases pins the nearest-rank convention at the two
// degenerate window sizes the ISSUE calls out: zero samples (all zero) and
// one sample (every percentile is that sample).
func TestSLOPercentilesEdgeCases(t *testing.T) {
	s := NewSLO(nil, 0, 0)
	p50, p95, p99 := s.Percentiles()
	if p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("empty window percentiles = %v %v %v, want all 0", p50, p95, p99)
	}

	s.ObserveStep(100*time.Millisecond, nil)
	p50, p95, p99 = s.Percentiles()
	if p50 != 0.1 || p95 != 0.1 || p99 != 0.1 {
		t.Errorf("one-sample percentiles = %v %v %v, want all 0.1", p50, p95, p99)
	}
}

func TestSLOPercentilesSpread(t *testing.T) {
	s := NewSLO(nil, 0, 100)
	for i := 1; i <= 100; i++ {
		s.ObserveStep(time.Duration(i)*time.Millisecond, nil)
	}
	p50, p95, p99 := s.Percentiles()
	if math.Abs(p50-0.050) > 1e-9 || math.Abs(p95-0.095) > 1e-9 || math.Abs(p99-0.099) > 1e-9 {
		t.Errorf("percentiles = %v %v %v, want 0.050 0.095 0.099", p50, p95, p99)
	}
}

// TestSLOWindowWrap checks the ring discards the oldest samples: after
// overwriting a window of slow steps with fast ones, the percentiles must
// reflect only the fast ones.
func TestSLOWindowWrap(t *testing.T) {
	s := NewSLO(nil, 0, 4)
	for i := 0; i < 4; i++ {
		s.ObserveStep(time.Second, nil)
	}
	for i := 0; i < 4; i++ {
		s.ObserveStep(10*time.Millisecond, nil)
	}
	p50, p95, p99 := s.Percentiles()
	if p50 != 0.01 || p95 != 0.01 || p99 != 0.01 {
		t.Errorf("post-wrap percentiles = %v %v %v, want all 0.01", p50, p95, p99)
	}
}

// TestSLOViolationAttribution checks the violation counter and that a
// violating step's phase durations land on the per-phase attribution
// gauges — and that compliant steps attribute nothing.
func TestSLOViolationAttribution(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, 50*time.Millisecond, 0)

	s.ObserveStep(40*time.Millisecond, map[string]time.Duration{
		PhaseScore: 35 * time.Millisecond,
	})
	if s.Violations() != 0 || s.Steps() != 1 {
		t.Fatalf("violations=%d steps=%d after compliant step", s.Violations(), s.Steps())
	}
	if v := reg.Gauge(`slo_violation_phase_seconds{phase="score"}`).Value(); v != 0 {
		t.Errorf("compliant step attributed %v", v)
	}

	// A step of exactly the budget is compliant (Samples.Within's rule).
	s.ObserveStep(50*time.Millisecond, map[string]time.Duration{PhaseScore: 50 * time.Millisecond})
	if s.Violations() != 0 {
		t.Fatalf("a step equal to the budget counted as a violation")
	}

	s.ObserveStep(100*time.Millisecond, map[string]time.Duration{
		PhaseScore: 60 * time.Millisecond,
		PhaseLoad:  30 * time.Millisecond,
	})
	if s.Violations() != 1 || s.Steps() != 3 {
		t.Fatalf("violations=%d steps=%d after violating step", s.Violations(), s.Steps())
	}
	if v := reg.Gauge(`slo_violation_phase_seconds{phase="score"}`).Value(); math.Abs(v-0.06) > 1e-9 {
		t.Errorf("score attribution = %v, want 0.06", v)
	}
	if v := reg.Gauge(`slo_violation_phase_seconds{phase="load"}`).Value(); math.Abs(v-0.03) > 1e-9 {
		t.Errorf("load attribution = %v, want 0.03", v)
	}
	if c := reg.Counter("slo_violations_total").Value(); c != 1 {
		t.Errorf("slo_violations_total = %d", c)
	}
}

func TestSLONilSafety(t *testing.T) {
	var s *SLO
	s.ObserveStep(time.Second, nil) // must not panic
	if s.Budget() != 0 || s.Violations() != 0 || s.Steps() != 0 {
		t.Error("nil SLO accessors must return zero values")
	}
	p50, p95, p99 := s.Percentiles()
	if p50 != 0 || p95 != 0 || p99 != 0 {
		t.Error("nil SLO percentiles must be zero")
	}
}
