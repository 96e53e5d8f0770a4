package ide

import (
	"context"
	"fmt"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// BenchmarkTerminalStep times result retrieval the way a served session
// ends: on the final model of a real oracle session of the retrieve-heavy
// shape (150k rows, selectivity 0.008, 44 labels, a sample of 2000, K = 7),
// one sub-benchmark per store layout — flat (S = 1) and S = 4 — and
// interest region. What a terminal step costs depends on the label
// geometry — a session's positives are one tight cluster, and how many rows
// the model settles without a selection varies with the region (69–98 %
// over the benchmark's five sessions) — which a model trained on rows
// strided through the dataset (core's BenchmarkResultRetrieval) does not
// have. Reports B/op and allocs/op (the scanned parts' blocks dominate
// them), ids/op (rows retrieved) and settled/op (rows decided without a
// selection). Run with -cpu 1 to compare commits. A developer's yardstick,
// not a gate: the repository's benchmark is benchmark/run.sh.
func BenchmarkTerminalStep(b *testing.B) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 150_000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) { benchmarkTerminalStep(b, ds, shards) })
	}
}

// benchmarkTerminalStep runs BenchmarkTerminalStep's sessions over ds
// stored in the given number of shards.
func benchmarkTerminalStep(b *testing.B, ds *dataset.Dataset, shards int) {
	const budget, sample = 8 << 20, 2000
	ctx := context.Background()
	bounds, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 64 << 10, Shards: shards}); err != nil {
		b.Fatal(err)
	}
	idx, err := core.Open(ctx, dir, core.Options{MemoryBudgetBytes: budget, SampleSize: sample})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	settled := idx.Registry().Counter("uei_retrieve_rows_settled_total")

	for seed := int64(1); seed <= 3; seed++ {
		region, err := oracle.FindRegion(ds, 0.008, 0.2, seed, 12)
		if err != nil {
			b.Fatal(err)
		}
		orc, err := oracle.New(ds, region)
		if err != nil {
			b.Fatal(err)
		}
		view, err := idx.NewView(core.ViewOptions{MemoryBudgetBytes: budget, SampleSize: sample, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		provider, err := NewUEIProvider(view)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := NewSession(Config{
			MaxLabels:        44,
			EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(0, bounds.Widths()) },
			Strategy:         al.LeastConfidence{},
			Seed:             seed,
			SeedWithPositive: true,
		}, provider, OracleLabeler{O: orc})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sess.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("region=%d", seed), func(b *testing.B) {
			before := settled.Value()
			b.ReportAllocs()
			b.ResetTimer()
			var ids []uint32
			for i := 0; i < b.N; i++ {
				if ids, err = provider.Retrieve(ctx, res.Model); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(ids)), "ids/op")
			b.ReportMetric(float64(settled.Value()-before)/float64(b.N), "settled/op")
		})
		view.Close()
	}
}
