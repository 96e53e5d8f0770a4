package obs

import (
	"math"
	"testing"
	"time"
)

// TestSamplesRule pins the one latency-summary definition: nearest-rank
// quantiles over exact samples, and "within budget" meaning <=. Every
// report in the repo (figure CSVs, examples, uei-trace, the SLO gauges)
// reads this type, so these cases are the cases of all of them.
func TestSamplesRule(t *testing.T) {
	const ms = time.Millisecond
	seq := func(lo, hi, step int) []time.Duration {
		var out []time.Duration
		for v := lo; v <= hi; v += step {
			out = append(out, time.Duration(v)*ms)
		}
		return out
	}
	type quantile struct {
		q    float64
		want time.Duration
	}
	cases := []struct {
		name string
		// observe is observed in order; merge arrives through Merge from
		// a second set.
		observe, merge []time.Duration
		count          int
		mean, max      time.Duration
		quantiles      []quantile
		budget         time.Duration
		within         int
		fraction       float64
	}{
		{
			name:      "empty set",
			quantiles: []quantile{{0.5, 0}, {1, 0}, {math.NaN(), 0}},
			budget:    500 * ms, within: 0, fraction: 1,
		},
		{
			name:    "one sample is every quantile",
			observe: seq(100, 100, 1),
			count:   1, mean: 100 * ms, max: 100 * ms,
			quantiles: []quantile{{0.01, 100 * ms}, {0.50, 100 * ms}, {0.95, 100 * ms}, {0.99, 100 * ms}, {1, 100 * ms}},
			budget:    500 * ms, within: 1, fraction: 1,
		},
		{
			name:    "ten samples",
			observe: seq(10, 100, 10),
			count:   10, mean: 55 * ms, max: 100 * ms,
			quantiles: []quantile{{0.50, 50 * ms}, {0.90, 90 * ms}, {0.95, 100 * ms}, {0.99, 100 * ms}, {1, 100 * ms}},
			budget:    55 * ms, within: 5, fraction: 0.5,
		},
		{
			name:    "hundred samples",
			observe: seq(1, 100, 1),
			count:   100, mean: 50*ms + 500*time.Microsecond, max: 100 * ms,
			quantiles: []quantile{{0.50, 50 * ms}, {0.95, 95 * ms}, {0.99, 99 * ms}},
			budget:    500 * ms, within: 100, fraction: 1,
		},
		{
			name:    "thousand samples are exact, q -> 1 is the max",
			observe: seq(1, 1000, 1),
			count:   1000, mean: 500*ms + 500*time.Microsecond, max: 1000 * ms,
			quantiles: []quantile{{0.50, 500 * ms}, {0.95, 950 * ms}, {0.99, 990 * ms}, {0.9999, 1000 * ms}, {1, 1000 * ms}},
			budget:    500 * ms, within: 500, fraction: 0.5,
		},
		{
			name:    "out-of-domain q",
			observe: seq(10, 30, 10),
			count:   3, mean: 20 * ms, max: 30 * ms,
			quantiles: []quantile{{math.NaN(), 0}, {-5, 0}, {0, 0}, {1e9, 30 * ms}},
			budget:    500 * ms, within: 3, fraction: 1,
		},
		{
			name:    "merge equals observing both",
			observe: seq(1, 1000, 1),
			merge:   []time.Duration{5 * time.Second, 2 * ms},
			count:   1002, mean: (500500*ms + 5*time.Second + 2*ms) / 1002, max: 5 * time.Second,
			quantiles: []quantile{{0.50, 500 * ms}, {1, 5 * time.Second}},
			budget:    500 * ms, within: 501, fraction: 501.0 / 1002,
		},
		{
			name:    "a sample equal to the budget is within it",
			observe: []time.Duration{499 * ms, 500 * ms, 500*ms + 1},
			count:   3, mean: (1499*ms + 1) / 3, max: 500*ms + 1,
			quantiles: []quantile{{0.5, 500 * ms}},
			budget:    500 * ms, within: 2, fraction: 2.0 / 3,
		},
		{
			name:    "negative samples clamp to zero",
			observe: []time.Duration{30 * ms, -time.Second},
			count:   2, mean: 15 * ms, max: 30 * ms,
			quantiles: []quantile{{0.5, 0}, {1, 30 * ms}},
			budget:    0, within: 1, fraction: 0.5,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s, direct Samples
			for i, d := range c.observe {
				s.Observe(d)
				direct.Observe(d)
				if i == 0 {
					// A query between observations must not leave the
					// set stale: later samples are re-ranked.
					_ = s.Quantile(0.5)
				}
			}
			var other Samples
			for _, d := range c.merge {
				other.Observe(d)
				direct.Observe(d)
			}
			s.Merge(&other)

			if s.Count() != c.count || s.Mean() != c.mean || s.Max() != c.max {
				t.Errorf("count/mean/max = %d/%v/%v, want %d/%v/%v",
					s.Count(), s.Mean(), s.Max(), c.count, c.mean, c.max)
			}
			for _, q := range c.quantiles {
				if got := s.Quantile(q.q); got != q.want {
					t.Errorf("Quantile(%v) = %v, want %v", q.q, got, q.want)
				}
				if got, want := s.Quantile(q.q), direct.Quantile(q.q); got != want {
					t.Errorf("Quantile(%v) = %v after Merge, %v observing both", q.q, got, want)
				}
			}
			if got := s.Within(c.budget); got != c.within {
				t.Errorf("Within(%v) = %d, want %d", c.budget, got, c.within)
			}
			if got := s.FractionWithin(c.budget); math.Abs(got-c.fraction) > 1e-12 {
				t.Errorf("FractionWithin(%v) = %v, want %v", c.budget, got, c.fraction)
			}
			if s.Count() != direct.Count() || s.Mean() != direct.Mean() || s.Max() != direct.Max() {
				t.Errorf("merged set %d/%v/%v differs from observing both %d/%v/%v",
					s.Count(), s.Mean(), s.Max(), direct.Count(), direct.Mean(), direct.Max())
			}
		})
	}
}

// TestHistogramRanksLikeSamples holds the export histogram to the same
// rank: its quantile is the upper bound of the bucket that contains the
// exact nearest-rank sample.
func TestHistogramRanksLikeSamples(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	h := NewRegistry().Histogram("rank_seconds", bounds)
	var s Samples
	for _, d := range []time.Duration{
		500 * time.Microsecond, 2 * time.Millisecond, 3 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond, 600 * time.Millisecond,
	} {
		h.Observe(d.Seconds())
		s.Observe(d)
	}
	snap := h.Snapshot()
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, snap.P50}, {0.95, snap.P95}, {0.99, snap.P99}} {
		exact := s.Quantile(c.q).Seconds()
		want := snap.Max
		for _, b := range bounds {
			if exact <= b {
				want = math.Min(b, snap.Max)
				break
			}
		}
		if c.got != want {
			t.Errorf("histogram q%.2f = %v, want %v (bucket of the exact %v)", c.q, c.got, want, exact)
		}
	}
}
