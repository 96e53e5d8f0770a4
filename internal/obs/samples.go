package obs

import (
	"math"
	"slices"
	"time"
)

// nearestRank is the one percentile rule of the repo: the q-quantile
// (0 < q <= 1) of n ordered samples is the sample at 1-based rank
// ceil(q*n), which lies in [1, n]. It returns 0 — "no such sample" — when
// there are no samples or q is NaN or not positive; q above 1 is the
// maximum.
func nearestRank(q float64, n int) int {
	if n <= 0 || math.IsNaN(q) || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	return int(math.Ceil(q * float64(n)))
}

// Samples is an exact latency sample set: every observation is kept, so
// quantiles are sample values (no bucket error) and a duration equal to a
// budget is within it. It is the summary every report in the repo reads —
// the figure CSVs, the examples, uei-loadgen, uei-trace and the SLO
// gauges — while the fixed-bucket Histogram remains the constant-memory
// export form. The zero value is an empty set; it is not goroutine-safe.
type Samples struct {
	d      []time.Duration
	sorted bool
	sum    time.Duration
	max    time.Duration
}

// Observe adds one sample. Negative durations are clamped to zero.
func (s *Samples) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.d = append(s.d, d)
	s.sorted = false
	s.sum += d
	if d > s.max {
		s.max = d
	}
}

// Merge adds every sample of o, as if each had been observed here.
func (s *Samples) Merge(o *Samples) {
	if len(o.d) == 0 {
		return
	}
	s.d = append(s.d, o.d...)
	s.sorted = false
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
}

// Count returns the number of samples.
func (s *Samples) Count() int { return len(s.d) }

// Mean returns the arithmetic mean, or 0 for an empty set.
func (s *Samples) Mean() time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.d))
}

// Max returns the largest sample, or 0 for an empty set.
func (s *Samples) Max() time.Duration { return s.max }

// Quantile returns the q-quantile, 0 < q <= 1, by nearestRank. An empty
// set, NaN, or a non-positive q returns 0.
func (s *Samples) Quantile(q float64) time.Duration {
	rank := nearestRank(q, len(s.d))
	if rank == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.d)
		s.sorted = true
	}
	return s.d[rank-1]
}

// Within returns how many samples are <= budget: a step of exactly the
// budget is compliant.
func (s *Samples) Within(budget time.Duration) int {
	n := 0
	for _, d := range s.d {
		if d <= budget {
			n++
		}
	}
	return n
}

// FractionWithin returns Within(budget)/Count, and 1 for an empty set
// (no sample violated the budget).
func (s *Samples) FractionWithin(budget time.Duration) float64 {
	if len(s.d) == 0 {
		return 1
	}
	return float64(s.Within(budget)) / float64(len(s.d))
}
