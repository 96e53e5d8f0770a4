package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
)

// BenchmarkScorePhase measures the per-iteration hot path: re-scoring
// every symbolic index point with the current model (Algorithm 2's
// updateUncertainty). SegmentsPerDim = 10 over the 5-dimensional sky
// schema gives 100,000 symbolic points. Two modes bracket the scoring
// pass: "scratch" rotates between two unrelated models, so the neighbour
// table resets and every op scans every point from row 0, and
// "incremental" runs the IDE's real refit pattern — one label appended per
// retrain, so every point resumes its scan and few are rescored. A DWKNN
// pass is serial whatever Options.Workers says, so there is no workers
// axis; the block pass other models take is measured by the benchmark's
// shard.score_all_ms.
func BenchmarkScorePhase(b *testing.B) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 4000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024}); err != nil {
		b.Fatal(err)
	}

	// The Table 1 estimator: DWKNN over ~50 labels, domain-scaled.
	bounds, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	scales := bounds.Widths()
	fitOn := func(nLabels int) *learn.DWKNN {
		m := learn.NewDWKNN(7, scales)
		var X [][]float64
		var y []int
		for i := 0; i < nLabels; i++ {
			row := ds.CopyRow(dataset.RowID(i * (ds.Len() / nLabels)))
			X = append(X, row)
			y = append(y, i%2) // alternate labels: a crossing boundary
		}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		return m
	}
	// From-scratch rotation: the two models sample different rows, so
	// neither is an append-only refit of the other and every op pays a
	// complete pass.
	full := []learn.Classifier{fitOn(50), fitOn(51)}

	// Incremental chain: a fresh model per retrain on a growing labeled
	// prefix, exactly what Session.refit produces. chain[0] is not an
	// append of chain[len-1], so each wrap-around is a full rescore.
	var X [][]float64
	var y []int
	for i := 0; i < 50+256; i++ {
		X = append(X, ds.CopyRow(dataset.RowID((i*131+17)%ds.Len())))
		y = append(y, i%2)
	}
	var chain []learn.Classifier
	for n := 50; n <= len(X); n++ {
		m := learn.NewDWKNN(7, scales)
		if err := m.Fit(append([][]float64(nil), X[:n]...), append([]int(nil), y[:n]...)); err != nil {
			b.Fatal(err)
		}
		chain = append(chain, m)
	}

	ctx := context.Background()
	for _, mode := range []string{"scratch", "incremental"} {
		b.Run("mode="+mode, func(b *testing.B) {
			opts := Options{
				MemoryBudgetBytes: 1 << 24,
				SegmentsPerDim:    10, // 10^5 = 100k symbolic index points
			}
			idx, err := Open(ctx, dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			if n := idx.NumIndexPoints(); n < 64_000 {
				b.Fatalf("only %d symbolic points; benchmark needs >= 64k", n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var model learn.Classifier
				if mode == "incremental" {
					model = chain[i%len(chain)]
				} else {
					model = full[i%len(full)]
				}
				idx.InvalidateScores()
				if err := idx.UpdateUncertainty(ctx, model); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(idx.NumIndexPoints()), "points/op")
			skipped := idx.Registry().Counter("uei_score_skipped_cells_total").Value()
			scored := idx.Registry().Counter("uei_score_scored_cells_total").Value()
			if scored+skipped > 0 {
				b.ReportMetric(float64(skipped)/float64(scored+skipped)*100, "skip%")
			}
		})
	}
}

// BenchmarkCellReconstruction measures the other half of the hot path the
// block cache targets: rebuilding a cell's tuples from disk-resident
// chunks (loadCell = mapping lookup + chunk reads + row-id merge), with 1,
// 4, and 16 concurrent session views hammering the same cells. Three cache
// modes bracket the design space: "off" is the paper's strict
// one-chunk-in-memory discipline, "cold" flushes the cache every pass (so
// every miss still pays decode but concurrent misses coalesce), "warm"
// lets the working set stay resident.
func BenchmarkCellReconstruction(b *testing.B) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 4000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	for _, mode := range []string{"off", "cold", "warm"} {
		cacheBytes := int64(0)
		if mode != "off" {
			cacheBytes = 64 << 20
		}
		for _, sessions := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("cache=%s/sessions=%d", mode, sessions), func(b *testing.B) {
				idx, err := Open(ctx, dir, Options{
					MemoryBudgetBytes: 1 << 24,
					Workers:           4,
					BlockCacheBytes:   cacheBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer idx.Close()
				views := make([]*Index, sessions)
				for i := range views {
					v, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 22, Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					defer v.Close()
					views[i] = v
				}
				cells := []int{0, idx.Grid().NumCells() / 3, idx.Grid().NumCells() / 2}

				b.ResetTimer()
				// Each op: every session reconstructs every probe cell once.
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						idx.BlockCache().Flush()
					}
					var wg sync.WaitGroup
					for _, v := range views {
						wg.Add(1)
						go func(v *Index) {
							defer wg.Done()
							for _, c := range cells {
								if _, _, err := v.loadCell(ctx, c); err != nil {
									b.Error(err)
									return
								}
							}
						}(v)
					}
					wg.Wait()
				}
				b.StopTimer()
				if cacheBytes > 0 {
					s := idx.BlockCache().Stats()
					b.ReportMetric(s.HitRate()*100, "hit%")
				}
			})
		}
	}
}

// BenchmarkResultRetrieval measures the terminal step's ResultRetrieval —
// scan, reconstruct, classify — on the two static layouts the end-to-end
// benchmark serves (a flat 50k-row store; 150k rows over S = 4), at the
// exact cutoff 0 the server runs and at a pruning cutoff. Run with -cpu 1
// to compare commits: B/op and allocs/op are the reconstruction's.
func BenchmarkResultRetrieval(b *testing.B) {
	ctx := context.Background()
	for _, lay := range []struct {
		name         string
		rows, shards int
	}{
		{"flat-50k", 50_000, 0},
		{"S=4-150k", 150_000, 4},
	} {
		ds, err := dataset.GenerateSky(dataset.SkyConfig{N: lay.rows, Seed: 21})
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 64 << 10, Shards: lay.shards}); err != nil {
			b.Fatal(err)
		}
		model := boundaryModel(b, ds, testRegion(b, ds), 44)
		for _, cutoff := range []float64{0, 0.05} {
			b.Run(fmt.Sprintf("%s/cutoff=%g", lay.name, cutoff), func(b *testing.B) {
				idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 8 << 20})
				if err != nil {
					b.Fatal(err)
				}
				defer idx.Close()
				b.ReportAllocs()
				b.ResetTimer()
				var ids []uint32
				for i := 0; i < b.N; i++ {
					if ids, err = idx.ResultRetrieval(ctx, model, cutoff); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if len(ids) == 0 {
					b.Fatal("retrieval returned no rows")
				}
				b.ReportMetric(float64(len(ids)), "ids/op")
			})
		}
	}
}
