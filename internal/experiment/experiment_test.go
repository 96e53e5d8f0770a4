package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/oracle"
)

// tinyConfig is a fast configuration for tests.
func tinyConfig() Config {
	c := DefaultConfig()
	c.N = 8000
	c.Runs = 1
	c.MaxLabels = 40
	c.EvalSize = 1500
	c.EvalEvery = 5
	c.TargetChunkBytes = 8 * 1024
	c.MemoryBudgetFraction = 0.05
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.MaxLabels = 1 },
		func(c *Config) { c.MemoryBudgetFraction = 0 },
		func(c *Config) { c.MemoryBudgetFraction = 2 },
		func(c *Config) { c.EvalSize = 0 },
		func(c *Config) { c.EvalEvery = 0 },
		func(c *Config) { c.RegionTolerance = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := FullConfig().validate(); err != nil {
		t.Errorf("full config invalid: %v", err)
	}
}

func TestTable1(t *testing.T) {
	out := Table1(DefaultConfig())
	for _, want := range []string{"DWKNN", "Binary", "F-Measure", "3125", "500ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestSetupAndBudget(t *testing.T) {
	cfg := tinyConfig()
	cfg.WorkDir = t.TempDir()
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.DS.Len() != cfg.N {
		t.Errorf("dataset has %d tuples", env.DS.Len())
	}
	if env.BudgetBytes() <= 0 {
		t.Error("budget not resolved")
	}
	idx, err := core.Open(context.Background(), env.storeDir, env.indexOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	table, err := env.OpenTable()
	if err != nil {
		t.Fatal(err)
	}
	if table.RowCount() != cfg.N {
		t.Errorf("table has %d rows", table.RowCount())
	}
	table.Close()
}

// TestRunIndexHonorsBlockCache: the index every run and ablation opens
// (with its per-run overrides) carries the configured block cache.
func TestRunIndexHonorsBlockCache(t *testing.T) {
	cfg := tinyConfig()
	cfg.WorkDir = t.TempDir()
	cfg.BlockCacheBytes = 1 << 20
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := env.openIndexWith(1, 4, 0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := idx.Stats(); st.CacheHits+st.CacheMisses == 0 {
		t.Error("run index reports no block-cache lookups with BlockCacheBytes set")
	}
}

func TestRunComparisonMediumRegion(t *testing.T) {
	cfg := tinyConfig()
	cfg.WorkDir = t.TempDir()
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunComparison(env, oracle.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UEI.Accuracy.Points) == 0 || len(res.DBMS.Accuracy.Points) == 0 {
		t.Fatal("empty accuracy series")
	}
	if res.UEI.Latency.Count() == 0 || res.DBMS.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	// Both schemes should learn something with 40 labels on a 0.4% region.
	if res.UEI.FinalF1 <= 0 {
		t.Errorf("UEI final F1 = %g", res.UEI.FinalF1)
	}
	if res.DBMS.FinalF1 <= 0 {
		t.Errorf("DBMS final F1 = %g", res.DBMS.FinalF1)
	}
	// The structural claim behind Figure 6: UEI reads far fewer bytes per
	// iteration than the full-scan baseline.
	if res.UEI.BytesReadPerIteration*2 > res.DBMS.BytesReadPerIteration {
		t.Errorf("UEI bytes/iter %.0f not well below DBMS %.0f",
			res.UEI.BytesReadPerIteration, res.DBMS.BytesReadPerIteration)
	}
	// Rendering should not panic and should carry both scheme names.
	fig := FormatAccuracyFigure(res)
	if !strings.Contains(fig, "UEI") || !strings.Contains(fig, "DBMS") {
		t.Errorf("figure rendering:\n%s", fig)
	}
	f6 := FormatResponseTimeFigure([]*ComparisonResult{res})
	if !strings.Contains(f6, "speedup") {
		t.Errorf("figure 6 rendering:\n%s", f6)
	}
	if SpeedupAcrossClasses([]*ComparisonResult{res}) <= 0 {
		t.Error("speedup not computed")
	}
}

func TestAblations(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxLabels = 25
	cfg.WorkDir = t.TempDir()
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}

	points, err := AblateIndexPoints(env, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Setting == points[1].Setting {
		t.Errorf("index-point ablation: %+v", points)
	}

	gammas, err := AblateGamma(env, []int{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(gammas) != 2 {
		t.Errorf("gamma ablation: %+v", gammas)
	}

	// A3 has no prefetch arm without a limiter; with one, both arms run
	// under it and only the prefetch arm defers swaps.
	if _, err := AblatePrefetch(env); !errors.Is(err, ErrA3NeedsLimiter) {
		t.Fatalf("A3 without a limiter: err = %v, want ErrA3NeedsLimiter", err)
	}
	env.Limiter = iothrottle.New(1 << 30)
	pf, err := AblatePrefetch(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf) != 2 || pf[0].Deferred != 0 || pf[1].Deferred == 0 {
		t.Errorf("prefetch ablation: %+v", pf)
	}
	env.Limiter = nil

	regions, err := AblateResidentRegions(env, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Errorf("resident-region ablation has %d rows", len(regions))
	}
	table := FormatAblation("A6: resident regions", regions)
	if !strings.Contains(table, "regions=1") || !strings.Contains(table, "regions=2") {
		t.Errorf("ablation table:\n%s", table)
	}
}

func TestAblateChunkSize(t *testing.T) {
	cfg := tinyConfig()
	cfg.N = 5000
	cfg.MaxLabels = 20
	points, err := AblateChunkSize(cfg, []int{4 * 1024, 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("chunk ablation: %+v", points)
	}
	for _, p := range points {
		if p.BytesPerIteration < 0 || p.MeanLatency < 0 {
			t.Errorf("nonsense point %+v", p)
		}
	}
}

func TestThrottledComparisonShowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled comparison is slow")
	}
	cfg := tinyConfig()
	cfg.MaxLabels = 10
	cfg.EvalEvery = 5
	// The bucket burst equals one second of budget; keep the budget small
	// enough that a full scan cannot hide inside the burst.
	cfg.IOBandwidthBytesPerSec = 256 << 10 // 256 KiB/s shared budget
	cfg.WorkDir = t.TempDir()
	env, err := Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunComparison(env, oracle.Medium)
	if err != nil {
		t.Fatal(err)
	}
	u, d := res.UEI.Latency.Mean(), res.DBMS.Latency.Mean()
	if u == 0 || d == 0 {
		t.Fatal("latencies not recorded")
	}
	if d < 2*u {
		t.Errorf("throttled DBMS (%v) should be well above UEI (%v)", d, u)
	}
	if d < 500*time.Millisecond {
		t.Errorf("DBMS mean %v suspiciously low for a >1s/iteration I/O budget", d)
	}
}
