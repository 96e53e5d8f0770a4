// This file regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks (quick-mode scale; `cmd/uei-bench
// -full` runs the workstation-scale version):
//
//	BenchmarkTable1Defaults        — Table 1 (parameter rendering)
//	BenchmarkFig3AccuracySmall     — Figure 3 (0.1% region, UEI vs DBMS)
//	BenchmarkFig4AccuracyMedium    — Figure 4 (0.4% region)
//	BenchmarkFig5AccuracyLarge     — Figure 5 (0.8% region)
//	BenchmarkFig6ResponseTime      — Figure 6 (per-iteration latency)
//	BenchmarkAblation*             — ablations A1, A2, A3 and A5 of DESIGN.md
//	Benchmark<Substrate>*          — microbenchmarks of the building blocks
//
// Accuracy/latency numbers are attached to the benchmark output via
// b.ReportMetric, so `go test -bench .` prints the figures' headline
// values alongside timing.
package uei_test

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/experiment"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/vec"
)

// benchConfig is the quick-mode scale used by all figure benchmarks.
func benchConfig() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.N = 12_000
	cfg.Runs = 1
	cfg.MaxLabels = 50
	cfg.EvalSize = 2000
	cfg.EvalEvery = 10
	cfg.TargetChunkBytes = 16 * 1024
	cfg.MemoryBudgetFraction = 0.05
	return cfg
}

var (
	envOnce sync.Once
	envVal  *experiment.Env
	envErr  error
)

// sharedEnv builds the benchmark environment once per process.
func sharedEnv(b *testing.B) *experiment.Env {
	b.Helper()
	envOnce.Do(func() {
		dir, err := os.MkdirTemp("", "uei-bench-")
		if err != nil {
			envErr = err
			return
		}
		cfg := benchConfig()
		cfg.WorkDir = dir
		envVal, envErr = experiment.Setup(cfg)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func BenchmarkTable1Defaults(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if out := experiment.Table1(cfg); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchAccuracyFigure runs one accuracy figure's comparison and reports
// its headline values as custom metrics.
func benchAccuracyFigure(b *testing.B, class oracle.SizeClass) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunComparison(env, class)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UEI.FinalF1, "uei-final-f1")
		b.ReportMetric(res.DBMS.FinalF1, "dbms-final-f1")
		b.ReportMetric(float64(res.UEI.Latency.Mean().Nanoseconds()), "uei-ns/iter")
		b.ReportMetric(float64(res.DBMS.Latency.Mean().Nanoseconds()), "dbms-ns/iter")
		b.ReportMetric(float64(res.UEI.Latency.Quantile(0.95).Nanoseconds()), "uei-p95-ns/iter")
	}
}

func BenchmarkFig3AccuracySmall(b *testing.B)  { benchAccuracyFigure(b, oracle.Small) }
func BenchmarkFig4AccuracyMedium(b *testing.B) { benchAccuracyFigure(b, oracle.Medium) }
func BenchmarkFig5AccuracyLarge(b *testing.B)  { benchAccuracyFigure(b, oracle.Large) }

func BenchmarkFig6ResponseTime(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var results []*experiment.ComparisonResult
		for _, class := range []oracle.SizeClass{oracle.Small, oracle.Medium, oracle.Large} {
			res, err := experiment.RunComparison(env, class)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, res)
		}
		b.ReportMetric(experiment.SpeedupAcrossClasses(results), "dbms/uei-speedup")
		// Response time is flat across region sizes (the paper's Fig. 6
		// observation); surface all three means.
		for _, r := range results {
			b.ReportMetric(float64(r.UEI.Latency.Mean().Nanoseconds()), "uei-"+string(r.Class)+"-ns/iter")
		}
	}
}

func BenchmarkAblationChunkSize(b *testing.B) {
	cfg := benchConfig()
	cfg.N = 6000
	cfg.MaxLabels = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiment.AblateChunkSize(cfg, []int{4 * 1024, 32 * 1024})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("unexpected ablation shape")
		}
	}
}

func BenchmarkAblationIndexPoints(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblateIndexPoints(env, []int{3, 5, 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrefetch runs A3 under FullConfig's 64 MiB/s limiter:
// prefetch derives θ from the limiter's rate, so the unthrottled shared
// environment has no prefetch arm.
func BenchmarkAblationPrefetch(b *testing.B) {
	cfg := benchConfig()
	cfg.WorkDir = b.TempDir()
	cfg.IOBandwidthBytesPerSec = 64 << 20
	env, err := experiment.Setup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblatePrefetch(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGamma(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblateGamma(env, []int{100, 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

var (
	microOnce  sync.Once
	microDS    *dataset.Dataset
	microStore *chunkstore.Store
	microGrid  *grid.Grid
	microErr   error
)

func microFixtures(b *testing.B) (*dataset.Dataset, *chunkstore.Store, *grid.Grid) {
	b.Helper()
	microOnce.Do(func() {
		microDS, microErr = dataset.GenerateSky(dataset.SkyConfig{N: 50_000, Seed: 77})
		if microErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "uei-micro-")
		if err != nil {
			microErr = err
			return
		}
		microStore, microErr = chunkstore.Build(dir, microDS, chunkstore.BuildOptions{TargetChunkBytes: 64 * 1024})
		if microErr != nil {
			return
		}
		microGrid, microErr = grid.New(microStore.Bounds(), 5)
	})
	if microErr != nil {
		b.Fatal(microErr)
	}
	return microDS, microStore, microGrid
}

func BenchmarkChunkstoreMergeRegion(b *testing.B) {
	_, store, g := microFixtures(b)
	boxes := make([]vec.Box, g.NumCells())
	for i := range boxes {
		box, err := g.CellBox(grid.CellID(i))
		if err != nil {
			b.Fatal(err)
		}
		boxes[i] = box
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.MergeRegion(context.Background(), boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchRows reconstructs 2000 uniform ids in one pass over the
// store: the kind of fetch a sample pool read makes (Algorithm 2 line 12),
// which reads every chunk whatever the id count.
func BenchmarkFetchRows(b *testing.B) {
	_, store, _ := microFixtures(b)
	ids, err := memcache.SampleIDs(store.RowCount(), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.FetchRows(context.Background(), ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkstoreReadChunk(b *testing.B) {
	_, store, _ := microFixtures(b)
	chunks := store.Manifest().Chunks[0]
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta := chunks[i%len(chunks)]
		if _, err := store.ReadChunk(context.Background(), meta); err != nil {
			b.Fatal(err)
		}
		bytes += meta.Bytes
	}
	b.SetBytes(bytes / int64(b.N))
}

func BenchmarkDWKNNPosterior(b *testing.B) {
	ds, _, _ := microFixtures(b)
	bounds, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	model := learn.NewDWKNN(7, bounds.Widths())
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 200)
	y := make([]int, 200)
	for i := range X {
		X[i] = ds.CopyRow(dataset.RowID(rng.Intn(ds.Len())))
		y[i] = i % 2
	}
	if err := model.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	q := ds.CopyRow(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PosteriorPositive(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridUncertaintyUpdate(b *testing.B) {
	ds, _, g := microFixtures(b)
	bounds, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	model := learn.NewDWKNN(7, bounds.Widths())
	X := [][]float64{ds.CopyRow(0), ds.CopyRow(1), ds.CopyRow(2), ds.CopyRow(3)}
	y := []int{0, 1, 0, 1}
	if err := model.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	centers := g.Centers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full symbolic-point re-scoring pass (Algorithm 2 line 17).
		for _, c := range centers {
			if _, err := learn.Uncertainty(model, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDBMSFullScan(b *testing.B) {
	ds, _, _ := microFixtures(b)
	dir, err := os.MkdirTemp("", "uei-scanbench-")
	if err != nil {
		b.Fatal(err)
	}
	table, err := dbms.CreateTable(dir, ds, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer table.Close()
	b.SetBytes(table.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := table.Scan(context.Background(), func(uint32, []float64) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != ds.Len() {
			b.Fatalf("scanned %d", n)
		}
	}
}
