package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/iothrottle"
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
// directories auto-detect, and the write path on a static index fails
// with ErrNotLive.
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
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after 100 open/close cycles", before, runtime.NumGoroutine())
}

// TestLiveStaticCommitPointUntouched pins the regression contract that
// static layouts are byte-identical to before the live write path existed:
// building a static store writes no live artifacts (no CURRENT, no WAL),
// and IsLiveDir stays false for both flat and sharded static layouts.
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
