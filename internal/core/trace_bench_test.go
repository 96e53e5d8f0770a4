package core

import (
	"context"
	"io"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
)

// BenchmarkTracedStep measures the tracing overhead on the full sharded
// step, with the exact fixture of BenchmarkShardedStep/shards=4 so the two
// are directly comparable: trace=off is the nil-tracer untraced path,
// trace=on emits a full step trace per iteration. The gated number for the
// tracing tax is the benchmark's bench.trace_overhead_frac.
func BenchmarkTracedStep(b *testing.B) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 4000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	model := learn.NewDWKNN(7, bounds.Widths())
	var X [][]float64
	var y []int
	for i := 0; i < 50; i++ {
		X = append(X, ds.CopyRow(dataset.RowID(i*(ds.Len()/50))))
		y = append(y, i%2)
	}
	if err := model.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []string{"off", "on"} {
		b.Run("trace="+mode, func(b *testing.B) {
			dir := b.TempDir()
			if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024, Shards: 4}); err != nil {
				b.Fatal(err)
			}
			opts := Options{MemoryBudgetBytes: 1 << 24, Workers: 4, Shards: 4}
			var tracer *obs.Tracer // nil mints nil traces: measuring-only spans
			if mode == "on" {
				tracer = obs.NewTracer(io.Discard)
			}
			idx, err := Open(ctx, dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.InvalidateScores()
				sctx, root := obs.StartSpan(obs.ContextWithTrace(ctx, tracer.NewTrace()), "step")
				if _, err := idx.EnsureRegion(sctx, model); err != nil {
					b.Fatal(err)
				}
				root.End(nil)
			}
			if err := tracer.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
