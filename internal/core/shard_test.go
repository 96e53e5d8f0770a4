package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/shard"
)

// openShardedPair builds a flat and a sharded store over the same dataset
// and opens both with identical options, for parity checks.
func openShardedPair(t *testing.T, n, shards int, opts Options) (flat, sharded *Index, ds *dataset.Dataset) {
	t.Helper()
	flat, ds = openTestIndex(t, n, opts)
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = 1 << 20
	}
	opts.Shards = shards
	sharded, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sharded.Close)
	return flat, sharded, ds
}

// TestShardedParity is the acceptance gate for the scatter-gather design:
// with every shard healthy, a sharded index must make byte-identical
// decisions to a flat index over the same dataset — same uncertainty
// vector, same top-k, same selected cell, same retrieval set.
func TestShardedParity(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			flat, sharded, ds := openShardedPair(t, 2500, shards, Options{Workers: 2})
			if !sharded.Sharded() || sharded.NumShards() != shards {
				t.Fatalf("sharded index reports Sharded=%v NumShards=%d", sharded.Sharded(), sharded.NumShards())
			}
			if flat.RowCount() != sharded.RowCount() || flat.Grid().NumCells() != sharded.Grid().NumCells() {
				t.Fatal("flat and sharded indexes disagree on shape")
			}
			model := boundaryModel(t, ds, testRegion(t, ds), 40)
			ctx := context.Background()

			if err := flat.UpdateUncertainty(ctx, model); err != nil {
				t.Fatal(err)
			}
			if err := sharded.UpdateUncertainty(ctx, model); err != nil {
				t.Fatal(err)
			}
			fu, su := flat.Uncertainties(), sharded.Uncertainties()
			for i := range fu {
				if fu[i] != su[i] {
					t.Fatalf("uncertainty[%d]: flat %v, sharded %v", i, fu[i], su[i])
				}
			}

			ftop, err := flat.MostUncertainCells(7)
			if err != nil {
				t.Fatal(err)
			}
			stop, err := sharded.MostUncertainCells(7)
			if err != nil {
				t.Fatal(err)
			}
			if len(ftop) != len(stop) {
				t.Fatalf("top-k length: flat %d, sharded %d", len(ftop), len(stop))
			}
			for i := range ftop {
				if ftop[i] != stop[i] {
					t.Fatalf("top-k[%d]: flat %d, sharded %d", i, ftop[i], stop[i])
				}
			}

			fc, err := flat.EnsureRegion(ctx, model)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sharded.EnsureRegion(ctx, model)
			if err != nil {
				t.Fatal(err)
			}
			if fc != sc {
				t.Fatalf("EnsureRegion: flat picked cell %d, sharded %d", fc, sc)
			}
			if sharded.LastStepDegraded() {
				t.Error("healthy sharded step reported degraded")
			}

			fids, err := flat.FetchRows(ctx, []uint32{0, 3, 3, uint32(ds.Len() - 1)})
			if err != nil {
				t.Fatal(err)
			}
			sids, err := sharded.FetchRows(ctx, []uint32{0, 3, 3, uint32(ds.Len() - 1)})
			if err != nil {
				t.Fatal(err)
			}
			if len(fids) != len(sids) {
				t.Fatalf("FetchRows length: flat %d, sharded %d", len(fids), len(sids))
			}
			for i := range fids {
				if fids[i].ID != sids[i].ID {
					t.Fatalf("FetchRows[%d]: flat id %d, sharded id %d", i, fids[i].ID, sids[i].ID)
				}
			}

			fres, err := flat.ResultRetrieval(ctx, model, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := sharded.ResultRetrieval(ctx, model, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if len(fres) != len(sres) {
				t.Fatalf("retrieval size: flat %d, sharded %d", len(fres), len(sres))
			}
			for i := range fres {
				if fres[i] != sres[i] {
					t.Fatalf("retrieval[%d]: flat %d, sharded %d", i, fres[i], sres[i])
				}
			}
			if len(fres) == 0 {
				t.Fatal("retrieval returned nothing; parity check is vacuous")
			}
		})
	}
}

// TestShardedOpenLayoutMismatch pins the ErrLayoutMismatch contract: every
// way of opening a store with the wrong layout expectation fails with the
// errors.Is-able sentinel.
func TestShardedOpenLayoutMismatch(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 300, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	flatDir, shardedDir := t.TempDir(), t.TempDir()
	if err := Build(flatDir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if err := Build(shardedDir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name   string
		dir    string
		shards int
	}{
		{"flat-dir-sharded-requested", flatDir, 4},
		{"sharded-dir-flat-requested", shardedDir, 1},
		{"shard-count-mismatch", shardedDir, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(ctx, tc.dir, Options{MemoryBudgetBytes: 1 << 20, Shards: tc.shards})
			if !errors.Is(err, chunkstore.ErrLayoutMismatch) {
				t.Fatalf("err = %v, want ErrLayoutMismatch", err)
			}
		})
	}
	// Auto-detect (Shards == 0) and the exact count both open fine.
	for _, n := range []int{0, 4} {
		idx, err := Open(ctx, shardedDir, Options{MemoryBudgetBytes: 1 << 20, Shards: n})
		if err != nil {
			t.Fatalf("Shards=%d: %v", n, err)
		}
		idx.Close()
	}
	// A different grid cannot be honored: cell ownership is grid-dependent.
	if _, err := Open(ctx, shardedDir, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: 7}); err == nil {
		t.Error("segment mismatch on a sharded store should fail Open")
	}
}

// TestShardedDegradedScoreStep forces one shard to fail its scoring pass
// and checks the step completes on the healthy subset: the response is
// flagged degraded, the metric increments, and the degraded shard's cells
// are never selected.
func TestShardedDegradedScoreStep(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 2000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	ctx := context.Background()
	coord := sharded.ShardCoordinator()

	coord.SetFaultHook(func(_ context.Context, s, _ int, op string) error {
		if s == 2 && op == shard.OpScore {
			return errors.New("injected shard fault")
		}
		return nil
	})
	before := sharded.Registry().Counter("shard_degraded_total").Value()
	cell, err := sharded.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatalf("degraded step should complete, got %v", err)
	}
	if !sharded.LastStepDegraded() {
		t.Error("LastStepDegraded = false after a skipped shard")
	}
	if got := sharded.DegradedShards(); len(got) != 1 || got[0] != 2 {
		t.Errorf("DegradedShards = %v, want [2]", got)
	}
	if after := sharded.Registry().Counter("shard_degraded_total").Value(); after <= before {
		t.Errorf("shard_degraded_total did not increment: %d -> %d", before, after)
	}
	if owner, err := coord.OwnerOfCell(cell); err != nil || owner == 2 {
		t.Errorf("selected cell %d owned by degraded shard (owner %d, err %v)", cell, owner, err)
	}

	// Recovery: with the fault cleared the next step is clean again.
	coord.SetFaultHook(nil)
	sharded.InvalidateScores()
	if _, err := sharded.EnsureRegion(ctx, model); err != nil {
		t.Fatal(err)
	}
	if sharded.LastStepDegraded() {
		t.Error("step still degraded after recovery")
	}
	if got := sharded.DegradedShards(); got != nil {
		t.Errorf("DegradedShards = %v after recovery, want nil", got)
	}

	// Every shard failing is an error, not silent degradation. The model
	// must genuinely change (a refit on different labels, not an
	// append-only extension), otherwise the exact incremental rescorer
	// correctly skips the pass without contacting any shard.
	coord.SetFaultHook(func(_ context.Context, _, _ int, op string) error {
		if op == shard.OpScore {
			return errors.New("total outage")
		}
		return nil
	})
	sharded.InvalidateScores()
	model2 := boundaryModel(t, ds, testRegion(t, ds), 55)
	if _, err := sharded.EnsureRegion(ctx, model2); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Errorf("all-shards-down err = %v, want ErrShardUnavailable", err)
	}
}

// TestShardedLoadFallback fails only the winning cell's load: the step
// must fall back to the runner-up cell instead of failing.
func TestShardedLoadFallback(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 2000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	ctx := context.Background()

	if err := sharded.UpdateUncertainty(ctx, model); err != nil {
		t.Fatal(err)
	}
	top, err := sharded.MostUncertainCells(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 2 {
		t.Fatalf("need two candidate cells, got %v", top)
	}
	var loads atomic.Int32
	sharded.ShardCoordinator().SetFaultHook(func(_ context.Context, _, _ int, op string) error {
		if op == shard.OpLoad && loads.Add(1) == 1 {
			return errors.New("winner's shard is down")
		}
		return nil
	})
	cell, err := sharded.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	if cell != top[1] {
		t.Fatalf("EnsureRegion = cell %d, want runner-up %d (winner was %d)", cell, top[1], top[0])
	}
	if !sharded.LastStepDegraded() {
		t.Error("runner-up fallback must mark the step degraded")
	}
}

// TestShardedCancellation checks caller cancellation is not confused with
// shard degradation and that the scatter leaves no goroutines behind.
func TestShardedCancellation(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 1000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 30)
	coord := sharded.ShardCoordinator()
	release := make(chan struct{})
	coord.SetFaultHook(func(ctx context.Context, s, _ int, op string) error {
		if op == shard.OpScore && s != 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-release:
				return nil
			}
		}
		return nil
	})
	before := runtime.NumGoroutine()
	counterBefore := sharded.Registry().Counter("shard_degraded_total").Value()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		sharded.InvalidateScores()
		err := sharded.UpdateUncertainty(ctx, model)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		cancel()
	}
	if got := sharded.Registry().Counter("shard_degraded_total").Value(); got != counterBefore {
		t.Errorf("cancellation counted as degradation: counter %d -> %d", counterBefore, got)
	}
	if sharded.LastStepDegraded() {
		t.Error("cancelled pass marked the step degraded")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// BenchmarkShardedStep measures the full per-iteration step — re-score,
// top-k, cell load — on flat and sharded layouts.
func BenchmarkShardedStep(b *testing.B) {
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
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 16 * 1024, Shards: shards}); err != nil {
				b.Fatal(err)
			}
			idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 24, Workers: 4, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.InvalidateScores()
				if _, err := idx.EnsureRegion(ctx, model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
