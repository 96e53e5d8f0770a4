package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// buildLiveIndex builds a live store from ds and opens it.
func buildLiveIndex(t *testing.T, ds *dataset.Dataset, shards int, opts Options) *Index {
	t.Helper()
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: shards, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = 1 << 20
	}
	idx, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

// TestLiveLayoutPinning covers the Open contract around the live layout:
// LiveIngest on a static directory fails with ErrLayoutMismatch, live
// directories auto-detect, the write path on a static index fails with
// ErrNotLive, and a live store — one shard or two — and a static store of
// two shards refuse a grid other than the recorded one (a static one-shard
// store takes any; TestDataPlaneAgainstBruteForce).
func TestLiveLayoutPinning(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 400, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	staticDir := t.TempDir()
	if err := Build(staticDir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, staticDir, Options{MemoryBudgetBytes: 1 << 20, LiveIngest: true}); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		t.Fatalf("LiveIngest on a static dir: err = %v, want ErrLayoutMismatch", err)
	}
	// A sharded build is the live layout's first epoch without wal/: static.
	shardedDir := t.TempDir()
	if err := Build(shardedDir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, shardedDir, Options{MemoryBudgetBytes: 1 << 20, LiveIngest: true}); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		t.Fatalf("LiveIngest on a sharded static dir: err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Open(ctx, shardedDir, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: 7}); err == nil {
		t.Error("grid mismatch on a static S = 2 store should fail Open (cell ownership is grid-dependent)")
	}
	oneLive := t.TempDir()
	if err := Build(oneLive, ds, BuildOptions{TargetChunkBytes: 2048, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, oneLive, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: 7}); err == nil {
		t.Error("grid mismatch on a live S = 1 store should fail Open (cell geometry is pinned)")
	}
	static, err := Open(ctx, staticDir, Options{MemoryBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if _, err := static.Append(ctx, [][]float64{ds.CopyRow(0)}); !errors.Is(err, ErrNotLive) {
		t.Errorf("Append on static index: err = %v, want ErrNotLive", err)
	}
	if err := static.Flush(ctx); !errors.Is(err, ErrNotLive) {
		t.Errorf("Flush on static index: err = %v, want ErrNotLive", err)
	}
	if _, err := static.AdvanceSnapshot(); !errors.Is(err, ErrNotLive) {
		t.Errorf("AdvanceSnapshot on static index: err = %v, want ErrNotLive", err)
	}
	if static.Live() != nil || static.LiveEpoch() != 0 || static.FollowsLive() {
		t.Error("static index reports live state")
	}

	// Auto-detect and the explicit flag both open a live dir; a sharded
	// live store cannot be opened as flat.
	liveDir := t.TempDir()
	if err := Build(liveDir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 2, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{MemoryBudgetBytes: 1 << 20},
		{MemoryBudgetBytes: 1 << 20, LiveIngest: true, Shards: 2},
	} {
		idx, err := Open(ctx, liveDir, opts)
		if err != nil {
			t.Fatalf("open live dir with %+v: %v", opts, err)
		}
		if idx.Live() == nil || idx.LiveEpoch() == 0 {
			t.Error("live index reports no live state")
		}
		if !idx.Sharded() || idx.NumShards() != 2 {
			t.Errorf("Sharded=%v NumShards=%d, want sharded 2", idx.Sharded(), idx.NumShards())
		}
		idx.Close()
	}
	if _, err := Open(ctx, liveDir, Options{MemoryBudgetBytes: 1 << 20, Shards: 1}); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		t.Fatalf("sharded live dir opened as flat: err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Open(ctx, liveDir, Options{MemoryBudgetBytes: 1 << 20, Shards: 3}); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		t.Fatalf("shard-count mismatch: err = %v, want ErrLayoutMismatch", err)
	}
	if _, err := Open(ctx, liveDir, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: 7}); err == nil {
		t.Error("grid mismatch on a live store should fail Open (cell geometry is pinned)")
	}
}

// TestLiveSnapshotPinningAndAdvance checks MVCC at the index level: an
// opened index (and its views) reads a fixed epoch through appends and
// flushes, and AdvanceSnapshot — the explicit iteration-boundary hook —
// moves it to the newest committed epoch.
func TestLiveSnapshotPinningAndAdvance(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 800, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			idx := buildLiveIndex(t, ds, shards, Options{Workers: 2})
			epoch0, rows0 := idx.LiveEpoch(), idx.RowCount()
			if rows0 != ds.Len() {
				t.Fatalf("RowCount = %d, want %d", rows0, ds.Len())
			}

			view, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			defer view.Close()
			if view.LiveEpoch() != epoch0 {
				t.Fatalf("view pinned epoch %d, parent %d", view.LiveEpoch(), epoch0)
			}

			// Durable but not visible: append + flush moves the committed
			// epoch, not any pinned snapshot.
			batch := [][]float64{ds.CopyRow(0), ds.CopyRow(1), ds.CopyRow(2)}
			if _, err := idx.Append(ctx, batch); err != nil {
				t.Fatal(err)
			}
			if err := idx.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if idx.RowCount() != rows0 || view.RowCount() != rows0 {
				t.Fatalf("pinned snapshots moved: idx %d, view %d, want %d", idx.RowCount(), view.RowCount(), rows0)
			}

			moved, err := idx.AdvanceSnapshot()
			if err != nil || !moved {
				t.Fatalf("AdvanceSnapshot = %v, %v; want moved", moved, err)
			}
			if idx.RowCount() != rows0+len(batch) {
				t.Fatalf("advanced RowCount = %d, want %d", idx.RowCount(), rows0+len(batch))
			}
			if view.RowCount() != rows0 || view.LiveEpoch() != epoch0 {
				t.Error("view advanced with its parent; views must pin their own epoch")
			}
			if moved, err := view.AdvanceSnapshot(); err != nil || !moved {
				t.Fatalf("view AdvanceSnapshot = %v, %v; want moved", moved, err)
			}
			if view.RowCount() != rows0+len(batch) {
				t.Fatalf("view advanced RowCount = %d, want %d", view.RowCount(), rows0+len(batch))
			}
			// Idempotent when nothing new committed.
			if moved, err := idx.AdvanceSnapshot(); err != nil || moved {
				t.Fatalf("second AdvanceSnapshot = %v, %v; want no move", moved, err)
			}

			// The advanced snapshot serves the appended rows.
			got, err := idx.FetchRows(ctx, []uint32{uint32(rows0)})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].ID != uint32(rows0) {
				t.Fatalf("FetchRows(appended) = %+v", got)
			}
			for d, v := range got[0].Vals {
				if v != batch[0][d] {
					t.Fatalf("appended row dim %d = %v, want %v", d, v, batch[0][d])
				}
			}
		})
	}
}

// TestLiveCloseNoGoroutineLeak opens and closes a live index 100 times —
// with prefetch on, background flush/compaction loops running, and
// appends in flight — and checks the goroutine count returns to baseline.
// Close must also be idempotent.
func TestLiveCloseNoGoroutineLeak(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 300, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		idx, err := Open(ctx, dir, Options{
			MemoryBudgetBytes: 1 << 20,
			EnablePrefetch:    true,
			Limiter:           iothrottle.New(1 << 30),
			Workers:           2,
			// A fast timer keeps the background flush and compaction
			// loops genuinely busy across the close.
			FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := idx.Append(ctx, [][]float64{ds.CopyRow(dataset.RowID(i % ds.Len()))}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		idx.Close()
		idx.Close() // idempotent
	}
	leakcheck.WaitGoroutines(t, before+2, 5*time.Second)
}

// TestLiveStaticCommitPointUntouched pins the contract that building a
// static store writes no WAL — a build commits the live layout's first
// epoch, without wal/ — so IsLiveDir stays false at one shard and at
// two.
func TestLiveStaticCommitPointUntouched(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 300, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		if stream.IsLiveDir(dir) {
			t.Errorf("static build (shards=%d) produced a live layout", shards)
		}
	}
}

// TestLiveOneShardCompactsAgainstBruteForce: a live one-shard store's first
// segment is an identity part (no idmap); appends land in two more
// segments, and a full compaction — which reads the identity part's rows
// through the part's id translation — merges all three back into one
// identity part over every row. What the index then reads matches a pass
// over the dataset: every cell's rows, every row fetched, and the pruned
// retrieval at each cutoff.
func TestLiveOneShardCompactsAgainstBruteForce(t *testing.T) {
	base, extra, all := referenceRows(t)
	ctx := context.Background()
	dir := t.TempDir()
	if err := Build(dir, base, BuildOptions{TargetChunkBytes: 2048, SegmentsPerDim: referenceSegments, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	identityOnly := func(when string) {
		t.Helper()
		man, err := shard.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != 1 || !man.Segments[0].Identity || man.Segments[0].Rows != man.FlushedRows {
			t.Fatalf("%s: segments %+v, want one identity segment over %d rows", when, man.Segments, man.FlushedRows)
		}
		if _, err := os.Stat(filepath.Join(dir, shard.SegmentDirName(man.Segments[0].ID), "idmap")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the identity part has an idmap file (stat err %v)", when, err)
		}
	}
	identityOnly("built")
	idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for _, part := range [][][]float64{extra[:len(extra)/2], extra[len(extra)/2:]} {
		if _, err := idx.Append(ctx, part); err != nil {
			t.Fatal(err)
		}
		if err := idx.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Live().Compact(ctx); err != nil {
		t.Fatal(err)
	}
	identityOnly("compacted")
	if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
		t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
	}

	model := boundaryModel(t, all, testRegion(t, all), 60)
	ref := newDataPlaneReference(t, all, model, referenceSegments)
	if idx.RowCount() != all.Len() {
		t.Fatalf("index holds %d rows, want %d", idx.RowCount(), all.Len())
	}
	for cell := 0; cell < ref.g.NumCells(); cell++ {
		ids, vals, err := idx.loadCell(ctx, cell)
		if err != nil {
			t.Fatalf("cell %d: %v", cell, err)
		}
		box, err := ref.g.CellBox(grid.CellID(cell))
		if err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for i := 0; i < all.Len(); i++ {
			if box.Contains(all.Row(dataset.RowID(i))) {
				want = append(want, uint32(i))
			}
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("cell %d: loaded ids %v, dataset has %v", cell, ids, want)
		}
		for i, id := range ids {
			if !slices.Equal(vals[i], all.Row(dataset.RowID(id))) {
				t.Fatalf("cell %d: row %d reads %v, dataset has %v", cell, id, vals[i], all.Row(dataset.RowID(id)))
			}
		}
	}
	every := make([]uint32, all.Len())
	for i := range every {
		every[i] = uint32(i)
	}
	rows, err := idx.FetchRows(ctx, every)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.ID != uint32(i) || !slices.Equal(r.Vals, all.Row(dataset.RowID(i))) {
			t.Fatalf("fetched[%d] = id %d %v, want id %d %v", i, r.ID, r.Vals, i, all.Row(dataset.RowID(i)))
		}
	}
	for cutoff, want := range ref.wantAt {
		got, err := idx.ResultRetrieval(ctx, model, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cutoff %g: retrieved %d ids, the row-at-a-time reference has %d", cutoff, len(got), len(want))
		}
	}
}
