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
// sharded, remote over the wire protocol, and remote with an injected slow
// primary replica with hedging off versus on: the hedged slow-replica
// line's p99 should beat the unhedged one (TestHedgedCallWinsAndCancelsLoser
// is the test of the mechanism). The region is dropped before every step:
// the load is the step's only request, and a step on a resident region
// would measure no transport at all.
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
		// The tail is the figure hedging exists to improve; the mean
		// barely moves.
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
	endpoints := []string{w1.URL, w2.URL}

	openRemoteIdx := func(b *testing.B, replication int, hedge time.Duration) *Index {
		idx, err := Open(ctx, "", Options{
			MemoryBudgetBytes: 1 << 24, Workers: 4,
			ShardEndpoints: endpoints, Replication: replication, HedgeDelay: hedge,
		})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}

	b.Run("transport=remote", func(b *testing.B) {
		idx := openRemoteIdx(b, 1, 0)
		defer idx.Close()
		step(b, idx)
	})

	// A primary replica that answers, but slowly — the grey-failure mode
	// hedging targets. The delay is injected client-side in the attempt
	// path, so cancellation (the hedged winner's loser-cancel) cuts it
	// short exactly like a slow network leg. The hedge delay must sit
	// above the healthy per-op service time (a premature hedge duplicates
	// the worker's chunk reads for nothing) and below the fault delay, the
	// same calibration an operator does against the op's p95.
	slowPrimary := func(ctx context.Context, _, replica int, _ string) error {
		if replica != 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
			return nil
		}
	}

	b.Run("transport=remote/slowreplica/hedge=off", func(b *testing.B) {
		idx := openRemoteIdx(b, 2, 0)
		defer idx.Close()
		idx.ShardCoordinator().SetFaultHook(slowPrimary)
		step(b, idx)
	})

	b.Run("transport=remote/slowreplica/hedge=8ms", func(b *testing.B) {
		idx := openRemoteIdx(b, 2, 8*time.Millisecond)
		defer idx.Close()
		idx.ShardCoordinator().SetFaultHook(slowPrimary)
		step(b, idx)
	})
}
