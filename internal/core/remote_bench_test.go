package core

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

// BenchmarkRemoteShardedStep measures a per-iteration step that swaps
// regions — re-score, top-k, cell load — across transports: in-process
// sharded and remote over the wire protocol. The region is dropped before
// every step: the load is the step's only request, and a step on a
// resident region would measure no transport at all.
func BenchmarkRemoteShardedStep(b *testing.B) {
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
	dir := b.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024, Shards: 2}); err != nil {
		b.Fatal(err)
	}

	step := func(b *testing.B, idx *Index) {
		var lat obs.Samples
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.cache.DropRegion()
			start := time.Now()
			idx.InvalidateScores()
			if _, err := idx.EnsureRegion(ctx, model); err != nil {
				b.Fatal(err)
			}
			lat.Observe(time.Since(start))
		}
		b.StopTimer()
		b.ReportMetric(float64(lat.Quantile(0.99).Nanoseconds()), "p99-ns/step")
	}

	b.Run("transport=local", func(b *testing.B) {
		idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 24, Workers: 4, Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		step(b, idx)
	})

	// One backing data plane behind two worker endpoints, as two uei-shardd
	// processes over copies of the store would serve it.
	backing, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 24, Workers: 4, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer backing.Close()
	man, err := shard.LoadManifest(dir)
	if err != nil {
		b.Fatal(err)
	}
	handler := remote.NewServer(backing.ShardCoordinator(), man, func(string, ...any) {})
	w1 := httptest.NewServer(handler)
	defer w1.Close()
	w2 := httptest.NewServer(handler)
	defer w2.Close()

	b.Run("transport=remote", func(b *testing.B) {
		idx, err := Open(ctx, "", Options{
			MemoryBudgetBytes: 1 << 24, Workers: 4,
			ShardEndpoints: []string{w1.URL, w2.URL},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		step(b, idx)
	})
}
