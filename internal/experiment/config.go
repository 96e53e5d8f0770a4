// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation (§4): Table 1 (parameters), Figures 3-5
// (F-measure vs labeled examples for small/medium/large target regions,
// UEI vs DBMS), Figure 6 (per-iteration response time), plus the ablations
// over UEI's tuning knobs listed in DESIGN.md.
package experiment

import (
	"fmt"
	"time"

	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// Config scales the evaluation. DefaultConfig is the quick mode used by
// `go test -bench` and CI; FullConfig approaches the paper's data:memory
// ratio on a workstation.
type Config struct {
	// N is the dataset cardinality (the paper used 10M tuples / 40 GB).
	N int
	// Seed drives data generation, region synthesis, sampling, and every
	// seeded component; run r uses Seed+r.
	Seed int64
	// Runs is the number of complete runs averaged per result (Table 1:
	// 10).
	Runs int
	// MaxLabels is the per-run user-effort budget (x-axis extent of
	// Figures 3-5).
	MaxLabels int
	// BatchSize is B of Algorithm 1.
	BatchSize int
	// SegmentsPerDim controls the symbolic index point count
	// (SegmentsPerDim^5; Table 1's 3125 points = 5).
	SegmentsPerDim int
	// TargetChunkBytes is the chunk size (Table 1: 470 KB; quick mode uses
	// smaller chunks so multi-chunk paths are exercised at small N).
	TargetChunkBytes int
	// MemoryBudgetFraction sizes the memory budget as a fraction of the
	// on-disk data (paper: 400 MB of 40 GB ≈ 0.01).
	MemoryBudgetFraction float64
	// LatencyThreshold is σ (Table 1: 500 ms).
	LatencyThreshold time.Duration
	// EnablePrefetch turns on §3.2 background loading. It needs
	// IOBandwidthBytesPerSec: θ is derived from the limiter's rate.
	EnablePrefetch bool
	// IOBandwidthBytesPerSec throttles both storage engines identically,
	// emulating the scaled secondary-storage bandwidth (see DESIGN.md §3).
	// Zero disables throttling.
	IOBandwidthBytesPerSec int64
	// EvalSize is the uniform evaluation-sample size used to estimate the
	// F-measure each checkpoint.
	EvalSize int
	// EvalEvery evaluates accuracy after every EvalEvery labels.
	EvalEvery int
	// RegionTolerance is the relative cardinality slack accepted when
	// synthesizing target regions.
	RegionTolerance float64
	// WorkDir hosts the built stores; empty means a temporary directory.
	WorkDir string
	// Obs, when non-nil, receives runtime metrics from every index and
	// session the harness opens (uei-bench's -metrics-addr endpoint
	// serves it). Runs accumulate into the same registry.
	Obs *obs.Registry
	// Trace, when non-nil, receives one trace per run, rooted at a "run"
	// span (uei-bench -trace).
	Trace *obs.Tracer
	// Workers sizes the index worker pool for every run. Zero keeps the
	// paper's serial per-iteration path (1 worker), so measured latencies
	// stay comparable to the published numbers; raise it to measure result
	// retrieval's fan-outs, the only work it parallelizes.
	Workers int
	// BlockCacheBytes, when positive, installs the shared decoded-chunk
	// block cache on every run's index. Zero keeps it off — the paper's
	// one-chunk-in-memory discipline — so published measurements stay
	// comparable; enable it to measure the cached hot path.
	BlockCacheBytes int64
	// Shards, when > 1, builds the UEI store in the sharded layout with
	// that many shards and runs every iteration as a scatter-gather. 0 and
	// 1 build one shard (the paper's configuration).
	Shards int
}

// DefaultConfig returns the quick-mode configuration.
func DefaultConfig() Config {
	return Config{
		N:                    20_000,
		Seed:                 1,
		Runs:                 2,
		MaxLabels:            100,
		BatchSize:            1,
		SegmentsPerDim:       5,
		TargetChunkBytes:     16 * 1024,
		MemoryBudgetFraction: 0.02,
		LatencyThreshold:     500 * time.Millisecond,
		EnablePrefetch:       false,
		EvalSize:             2000,
		EvalEvery:            5,
		RegionTolerance:      0.35,
	}
}

// FullConfig returns the workstation-scale configuration: 2M tuples,
// 470 KB chunks, 1% memory budget, 10 runs, and an I/O budget that makes a
// full scan take on the order of the paper's 12 s exhaustive search.
func FullConfig() Config {
	c := DefaultConfig()
	c.N = 2_000_000
	c.Runs = 10
	c.MaxLabels = 300
	c.TargetChunkBytes = 470 * 1024
	c.MemoryBudgetFraction = 0.01
	c.IOBandwidthBytesPerSec = 64 << 20 // 64 MiB/s shared budget
	c.EvalSize = 10_000
	c.EvalEvery = 10
	c.EnablePrefetch = true
	return c
}

// validate rejects nonsensical configurations early.
func (c Config) validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("experiment: N = %d", c.N)
	case c.Runs <= 0:
		return fmt.Errorf("experiment: Runs = %d", c.Runs)
	case c.MaxLabels <= 1:
		return fmt.Errorf("experiment: MaxLabels = %d", c.MaxLabels)
	case c.MemoryBudgetFraction <= 0 || c.MemoryBudgetFraction > 1:
		return fmt.Errorf("experiment: MemoryBudgetFraction = %g", c.MemoryBudgetFraction)
	case c.EvalSize <= 0:
		return fmt.Errorf("experiment: EvalSize = %d", c.EvalSize)
	case c.EvalEvery <= 0:
		return fmt.Errorf("experiment: EvalEvery = %d", c.EvalEvery)
	case c.RegionTolerance <= 0:
		return fmt.Errorf("experiment: RegionTolerance = %g", c.RegionTolerance)
	case c.BlockCacheBytes < 0:
		return fmt.Errorf("experiment: BlockCacheBytes = %d", c.BlockCacheBytes)
	case c.Shards < 0:
		return fmt.Errorf("experiment: Shards = %d", c.Shards)
	}
	return nil
}

// Table1 renders the experiment parameters in the shape of the paper's
// Table 1.
func Table1(c Config) string {
	classes := []oracle.SizeClass{oracle.Small, oracle.Medium, oracle.Large}
	cards := ""
	for i, cls := range classes {
		f, _ := cls.Fraction()
		if i > 0 {
			cards += ", "
		}
		cards += fmt.Sprintf("%.1f%% (%s)", f*100, string(cls[0]-32)) // S, M, L
	}
	points := 1
	for i := 0; i < 5; i++ {
		points *= c.SegmentsPerDim
	}
	rows := [][2]string{
		{"Number of runs per result", fmt.Sprintf("%d", c.Runs)},
		{"Number of dimensions (D)", "5"},
		{"Number of relevant regions", "1"},
		{"Cardinality of relevant regions", cards},
		{"Uncertainty Estimator", "DWKNN [11]"},
		{"Label Type", "Binary"},
		{"Data Storage Engine", "UEI, DBMS (heap+bufferpool)"},
		{"Size of Individual Data Chunk", fmt.Sprintf("%dKB", c.TargetChunkBytes/1024)},
		{"Number of Symbolic Index Points", fmt.Sprintf("%d", points)},
		{"Latency Threshold", c.LatencyThreshold.String()},
		{"Performance Measurement", "F-Measure (Accuracy)"},
		{"Dataset cardinality", fmt.Sprintf("%d", c.N)},
		{"Memory budget", fmt.Sprintf("%.1f%% of data", c.MemoryBudgetFraction*100)},
	}
	out := "Table 1: PARAMETERS\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-34s %s\n", r[0], r[1])
	}
	return out
}
