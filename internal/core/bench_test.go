package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
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
					b.ReportMetric(100*float64(s.Hits)/float64(max(1, s.Hits+s.Misses)), "hit%")
				}
			})
		}
	}
}

// BenchmarkCellLoad measures one steady step's region load alone — the
// mapping lookup, the chunk reads and the row-id merge of loadCell — on the
// two static layouts the end-to-end benchmark serves (a flat 50k-row store;
// 150k rows over S = 4), with the block cache off (every chunk read and
// decoded) and warm (the merge alone). Each op loads, through one session,
// the three cells of the default grid that hold the most rows — the dense
// cells a session spends its steps near; rows/op is what they hold. Run
// with -cpu 1 to compare commits.
func BenchmarkCellLoad(b *testing.B) {
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
		for _, mode := range []string{"off", "warm"} {
			b.Run(fmt.Sprintf("%s/cache=%s", lay.name, mode), func(b *testing.B) {
				opts := Options{MemoryBudgetBytes: 8 << 20}
				if mode == "warm" {
					opts.BlockCacheBytes = 64 << 20
				}
				idx, err := Open(ctx, dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer idx.Close()
				count := make([]int, idx.Grid().NumCells())
				for i := 0; i < ds.Len(); i++ {
					c, err := idx.Grid().CellOf(ds.Row(dataset.RowID(i)))
					if err != nil {
						b.Fatal(err)
					}
					count[c]++
				}
				var cells []int
				for range 3 {
					best := 0
					for c, k := range count {
						if k > count[best] {
							best = c
						}
					}
					cells, count[best] = append(cells, best), -1
				}
				rows := 0
				for _, c := range cells { // also warms the cache
					ids, _, err := idx.loadCell(ctx, c)
					if err != nil {
						b.Fatal(err)
					}
					rows += len(ids)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range cells {
						if _, _, err := idx.loadCell(ctx, c); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(rows), "rows/op")
			})
		}
	}
}

// BenchmarkInitExploration measures a session open's γ draw — 2 000 rows
// drawn from the index's sample pool and copied into U — on the two static
// layouts the end-to-end benchmark serves (a flat 50k-row store; 150k rows
// over S = 4) with the block cache off. The pool's one read, which reads
// every chunk of every dimension, happens before the timer (BenchmarkFetchRows'
// "pool" case times a read of its size). Each op is one session's view
// with its own seed; creating and closing the view is not timed. Run with
// -cpu 1 to compare commits.
func BenchmarkInitExploration(b *testing.B) {
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
		b.Run(lay.name, func(b *testing.B) {
			idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			warm, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 8 << 20, SampleSize: 2000, Seed: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := warm.InitExploration(ctx); err != nil {
				b.Fatal(err)
			}
			warm.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				view, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 8 << 20, SampleSize: 2000, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := view.InitExploration(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				view.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFetchRows measures Index.FetchRows on a 150k-row store, flat
// and S = 4, with the block cache off: "all" fetches every row (the
// server's oracle dataset read) and "pool" 16 000 uniform ids (a sample
// pool read at γ = 2 000). Both read every chunk of every dimension; what
// differs between the layouts is the per-part id translation and the
// merge of the shards' rows. Run with -cpu 1 to compare commits.
func BenchmarkFetchRows(b *testing.B) {
	ctx := context.Background()
	const rows = 150_000
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: rows, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	all := make([]uint32, rows)
	for i := range all {
		all[i] = uint32(i)
	}
	pool, err := memcache.SampleIDs(rows, 16_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, lay := range []struct {
		name   string
		shards int
	}{
		{"flat-150k", 0},
		{"S=4-150k", 4},
	} {
		dir := b.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 64 << 10, Shards: lay.shards}); err != nil {
			b.Fatal(err)
		}
		idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for _, fetch := range []struct {
			name string
			ids  []uint32
		}{
			{"all", all},
			{"pool", pool},
		} {
			b.Run(lay.name+"/"+fetch.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					got, err := idx.FetchRows(ctx, fetch.ids)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != len(fetch.ids) {
						b.Fatalf("fetched %d of %d rows", len(got), len(fetch.ids))
					}
				}
			})
		}
		idx.Close()
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

// BenchmarkBuild measures the offline phase (Algorithm 2 lines 1-11's
// store half): 150k sky rows written flat and as S = 4 partitions at the
// end-to-end benchmark's 64 KiB chunk target. Each op writes a fresh
// directory; removing it is not timed. allocs/op counts the writer's
// allocations, which no longer grow with the row count.
func BenchmarkBuild(b *testing.B) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 150_000, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(root, fmt.Sprint(i))
				if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 64 << 10, Shards: shards}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
