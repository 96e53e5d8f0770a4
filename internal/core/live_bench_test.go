package core

import (
	"context"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
)

// BenchmarkLiveStep measures the full per-iteration step — re-score,
// top-k, cell load — across the three serving modes the live write path
// introduces: a static store, an idle live store (pinned snapshot, no
// ingest), and a live store under continuous appends with periodic
// flushes. The gap between static and live-idle is the cost of reading
// through snapshot parts; the gap to live-under-append is WAL/flush
// interference.
func BenchmarkLiveStep(b *testing.B) {
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

	open := func(b *testing.B, live bool) *Index {
		b.Helper()
		dir := b.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024, LiveIngest: live}); err != nil {
			b.Fatal(err)
		}
		idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 24, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(idx.Close)
		return idx
	}
	step := func(b *testing.B, idx *Index) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.InvalidateScores()
			if _, err := idx.EnsureRegion(ctx, model); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}

	b.Run("static", func(b *testing.B) { step(b, open(b, false)) })
	b.Run("live-idle", func(b *testing.B) { step(b, open(b, true)) })
	b.Run("live-under-append", func(b *testing.B) {
		idx := open(b, true)
		db := idx.Live()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Append([][]float64{ds.CopyRow(dataset.RowID((i * 37) % ds.Len()))}); err != nil {
					b.Error(err)
					return
				}
				if i%64 == 63 {
					if err := db.Flush(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		step(b, idx)
		close(stop)
		wg.Wait()
	})
}
