package experiment

import (
	"errors"
	"fmt"
	"time"

	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/oracle"
)

// AblationPoint is one setting's outcome in an ablation sweep.
type AblationPoint struct {
	// Setting names the knob value ("chunk=470KB", "segments=6", ...).
	Setting string
	// MeanLatency and P95Latency summarize per-iteration response time.
	MeanLatency time.Duration
	P95Latency  time.Duration
	// FinalF1 is the end-of-run accuracy.
	FinalF1 float64
	// BytesPerIteration is the mean exploration I/O per iteration.
	BytesPerIteration float64
	// Swaps and Deferred count UEI region swaps and deferred swaps.
	Swaps    int
	Deferred int
}

// ablationRegion synthesizes the medium target region ablations share.
func ablationRegion(env *Env) (oracle.Region, error) {
	fraction, err := oracle.Medium.Fraction()
	if err != nil {
		return oracle.Region{}, err
	}
	return oracle.FindRegion(env.DS, fraction, env.Cfg.RegionTolerance, env.Cfg.Seed*31+5, 16)
}

// ablateOne runs a single UEI exploration with overrides and summarizes it.
func ablateOne(env *Env, region oracle.Region, setting string, opt runOptions) (AblationPoint, error) {
	st, err := runOne(env, region, SchemeUEI, env.Cfg.Seed, opt)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("experiment: ablation %q: %w", setting, err)
	}
	return AblationPoint{
		Setting:           setting,
		MeanLatency:       st.latency.Mean(),
		P95Latency:        st.latency.Quantile(0.95),
		FinalF1:           st.finalF1,
		BytesPerIteration: safeDiv(float64(st.bytesRead), float64(st.iterations)),
		Swaps:             st.swaps,
		Deferred:          st.deferred,
	}, nil
}

// AblateIndexPoints sweeps the symbolic-index-point budget (Table 1's 3125
// = 5 segments/dim) — ablation A2 of DESIGN.md. More points localize
// uncertainty better (smaller, cheaper regions) at the cost of scoring more
// points per iteration.
func AblateIndexPoints(env *Env, segments []int) ([]AblationPoint, error) {
	region, err := ablationRegion(env)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, s := range segments {
		points := 1
		for i := 0; i < env.DS.Dims(); i++ {
			points *= s
		}
		p, err := ablateOne(env, region, fmt.Sprintf("segments=%d (|P|=%d)", s, points), runOptions{segmentsPerDim: s})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblateGamma sweeps the uniform-sample size γ of Algorithm 2 line 12 —
// ablation A5. Larger γ improves early-stage coverage but consumes memory
// budget that region loads then cannot use.
func AblateGamma(env *Env, gammas []int) ([]AblationPoint, error) {
	region, err := ablationRegion(env)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, g := range gammas {
		p, err := ablateOne(env, region, fmt.Sprintf("gamma=%d", g), runOptions{sampleSize: g})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ErrA3NeedsLimiter is AblatePrefetch's answer on an unthrottled
// environment: θ is derived from the limiter's rate, so without one there
// is no prefetch arm to run.
var ErrA3NeedsLimiter = errors.New("experiment: A3 needs -iobw (prefetch derives θ from the I/O limiter's rate)")

// AblatePrefetch compares prefetching off vs on (§3.2) — ablation A3 —
// with both arms under the environment's limiter. Prefetching should cut
// tail latency (swaps hide behind iterations) at equal accuracy.
func AblatePrefetch(env *Env) ([]AblationPoint, error) {
	if env.Limiter == nil {
		return nil, ErrA3NeedsLimiter
	}
	region, err := ablationRegion(env)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, enabled := range []bool{false, true} {
		e := enabled
		p, err := ablateOne(env, region, fmt.Sprintf("prefetch=%v", e), runOptions{prefetch: &e})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblateResidentRegions sweeps the resident-region bound — ablation A6.
// §3.2 fixes the paper's default at one region; more resident regions
// trade memory-budget headroom for fewer re-loads when the most-uncertain
// cell oscillates between neighbors.
func AblateResidentRegions(env *Env, counts []int) ([]AblationPoint, error) {
	region, err := ablationRegion(env)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, n := range counts {
		p, err := ablateOne(env, region, fmt.Sprintf("regions=%d", n), runOptions{residentRegions: n})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblateChunkSize sweeps the equal-size chunk target (Table 1's 470 KB) —
// ablation A1. Small chunks localize reads (fewer wasted bytes per region)
// but multiply files and per-chunk overheads; big chunks do the reverse.
// Each setting needs its own store build, so this ablation constructs
// fresh environments from cfg rather than sharing one.
func AblateChunkSize(cfg Config, sizes []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, size := range sizes {
		c := cfg
		c.TargetChunkBytes = size
		c.WorkDir = "" // isolated per-size temp dir
		env, err := Setup(c)
		if err != nil {
			return nil, fmt.Errorf("experiment: chunk ablation setup (%d): %w", size, err)
		}
		region, err := ablationRegion(env)
		if err != nil {
			return nil, err
		}
		p, err := ablateOne(env, region, fmt.Sprintf("chunk=%dKB", size/1024), runOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatAblation renders an ablation sweep as an aligned table.
func FormatAblation(title string, points []AblationPoint) string {
	out := title + "\n"
	out += fmt.Sprintf("  %-26s %12s %12s %8s %14s %6s %9s\n",
		"setting", "mean-lat", "p95-lat", "F1", "bytes/iter", "swaps", "deferred")
	for _, p := range points {
		out += fmt.Sprintf("  %-26s %12s %12s %8.3f %14.0f %6d %9d\n",
			p.Setting,
			p.MeanLatency.Round(time.Microsecond),
			p.P95Latency.Round(time.Microsecond),
			p.FinalF1,
			p.BytesPerIteration,
			p.Swaps,
			p.Deferred)
	}
	return out
}

// labelsToReach answers "how many labels until F1 >= t" for a mean curve.
func labelsToReach(s *metrics.Series, threshold float64) string {
	if x, ok := s.FirstXReaching(threshold); ok {
		return fmt.Sprintf("%.0f", x)
	}
	return "n/a"
}
