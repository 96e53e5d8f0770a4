package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
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

// winnerAndFallback scores the index and returns the most uncertain cell,
// the shard owning it, and the step's fallback for a failed load of it: the
// most uncertain cell some other shard owns.
func winnerAndFallback(t *testing.T, x *Index, model learn.Classifier) (winner grid.CellID, owner int, fallback grid.CellID) {
	t.Helper()
	if err := x.UpdateUncertainty(context.Background(), model); err != nil {
		t.Fatal(err)
	}
	ranked, err := x.MostUncertainCells(x.NumIndexPoints())
	if err != nil {
		t.Fatal(err)
	}
	coord := x.ShardCoordinator()
	owner, err = coord.OwnerOfCell(ranked[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range ranked[1:] {
		if o, _ := coord.OwnerOfCell(cell); o != owner {
			return ranked[0], owner, cell
		}
	}
	t.Fatalf("shard %d owns every cell", owner)
	return 0, 0, 0
}

// TestShardedDegradedScoreStep fails the load of the winning cell on its
// owning shard and checks the step completes on another shard's best cell:
// the step is flagged degraded, the metric counts the one failed load, and
// the chosen cell is not the failed shard's. (Scoring cannot degrade a step:
// the symbolic index is scored in-process and contacts no shard.)
func TestShardedDegradedScoreStep(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 2000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	ctx := context.Background()
	coord := sharded.ShardCoordinator()
	degradedTotal := sharded.Registry().Counter("shard_degraded_total")

	winner, victim, _ := winnerAndFallback(t, sharded, model)
	coord.SetFaultHook(func(_ context.Context, s int, op string) error {
		if s == victim && op == shard.OpLoad {
			return errors.New("injected shard fault")
		}
		return nil
	})
	before := degradedTotal.Value()
	cell, err := sharded.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatalf("degraded step should complete, got %v", err)
	}
	if !sharded.LastStepDegraded() {
		t.Error("LastStepDegraded = false after falling back from the winner")
	}
	if got := degradedTotal.Value() - before; got != 1 {
		t.Errorf("shard_degraded_total moved by %d, want 1 (one failed load, one deadline wait)", got)
	}
	if owner, err := coord.OwnerOfCell(cell); err != nil || owner == victim {
		t.Errorf("selected cell %d owned by the failed shard (owner %d, err %v)", cell, owner, err)
	}

	// Recovery: with the fault cleared the next step is clean again.
	coord.SetFaultHook(nil)
	sharded.InvalidateScores()
	cell, err = sharded.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.LastStepDegraded() || cell != winner {
		t.Errorf("after recovery: cell %d (winner %d), degraded %v", cell, winner, sharded.LastStepDegraded())
	}

	// Every shard failing its loads, with no region resident to stay on,
	// is an error, not silent degradation.
	coord.SetFaultHook(func(_ context.Context, _ int, op string) error {
		if op == shard.OpLoad {
			return errors.New("total outage")
		}
		return nil
	})
	fresh, err := sharded.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.EnsureRegion(ctx, model); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Errorf("all-shards-down err = %v, want ErrShardUnavailable", err)
	}
	// The same outage with a region resident degrades onto it.
	sharded.InvalidateScores()
	model2 := boundaryModel(t, ds, testRegion(t, ds), 55)
	if w2, _, _ := winnerAndFallback(t, sharded, model2); w2 == winner {
		t.Fatalf("both models rank cell %d first; the resident fallback goes untested", winner)
	}
	cell, err = sharded.EnsureRegion(ctx, model2)
	if err != nil || cell != winner || !sharded.LastStepDegraded() {
		t.Errorf("outage with cell %d resident: cell %d, degraded %v, err %v", winner, cell, sharded.LastStepDegraded(), err)
	}
}

// TestShardedLoadFallback fails the winning cell's shard for loads: the
// step must fall back to the best cell not owned by that shard — the
// runner-up only when another shard owns it — after exactly one failed
// attempt.
func TestShardedLoadFallback(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 2000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	ctx := context.Background()

	winner, victim, want := winnerAndFallback(t, sharded, model)
	var failed atomic.Int32
	sharded.ShardCoordinator().SetFaultHook(func(_ context.Context, s int, op string) error {
		if op == shard.OpLoad && s == victim {
			failed.Add(1)
			return errors.New("winner's shard is down")
		}
		return nil
	})
	cell, err := sharded.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	if cell != want {
		t.Fatalf("EnsureRegion = cell %d, want %d, the best cell outside shard %d (winner was %d)", cell, want, victim, winner)
	}
	if got := failed.Load(); got != 1 {
		t.Errorf("the failed shard was asked %d times, want once", got)
	}
	if !sharded.LastStepDegraded() {
		t.Error("the fallback must mark the step degraded")
	}
}

// TestShardedCancellation cancels a step while its cell load hangs:
// caller cancellation is not confused with shard degradation and the
// attempt leaves no goroutines behind.
func TestShardedCancellation(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 1000, 4, Options{Workers: 2})
	model := boundaryModel(t, ds, testRegion(t, ds), 30)
	coord := sharded.ShardCoordinator()
	release := make(chan struct{})
	coord.SetFaultHook(func(ctx context.Context, _ int, op string) error {
		if op == shard.OpLoad {
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
		_, err := sharded.EnsureRegion(ctx, model)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if errors.Is(err, shard.ErrShardUnavailable) {
			t.Fatalf("err = %v classifies the cancellation as a shard failure", err)
		}
		cancel()
	}
	if got := sharded.Registry().Counter("shard_degraded_total").Value(); got != counterBefore {
		t.Errorf("cancellation counted as degradation: counter %d -> %d", counterBefore, got)
	}
	if sharded.LastStepDegraded() {
		t.Error("cancelled step marked degraded")
	}
	if sharded.ResidentRegion() != memcache.NoRegion {
		t.Error("a cancelled load installed a region")
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

// TestRetrieveDeadShardMovesNoCounter: a shard failing its retrieval
// after the others have classified their parts fails the terminal step with
// ErrShardUnavailable, and none of the retrieval counters move — they count
// only a retrieval that answered.
func TestRetrieveDeadShardMovesNoCounter(t *testing.T) {
	_, sharded, ds := openShardedPair(t, 2000, 4, Options{SampleSize: 40, Seed: 9, Workers: 4})
	model := boundaryModel(t, ds, testRegion(t, ds), 100)
	reg := sharded.Registry()
	counters := []string{"uei_retrieve_rows_total", "uei_retrieve_rows_settled_total", "uei_entries_visited_total"}
	read := func() []int64 {
		v := make([]int64, len(counters))
		for i, name := range counters {
			v[i] = reg.Counter(name).Value()
		}
		return v
	}
	before := read()
	sharded.ShardCoordinator().SetFaultHook(func(ctx context.Context, s int, op string) error {
		if s != 3 || op != shard.OpRetrieve {
			return nil
		}
		select {
		case <-time.After(30 * time.Millisecond):
			return errors.New("injected")
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	ids, err := sharded.ResultRetrieval(context.Background(), model, 0)
	if !errors.Is(err, shard.ErrShardUnavailable) || ids != nil {
		t.Fatalf("got %d ids, err %v; want none and ErrShardUnavailable", len(ids), err)
	}
	if after := read(); !slices.Equal(after, before) {
		t.Fatalf("counters %v moved %v -> %v", counters, before, after)
	}
	sharded.ShardCoordinator().SetFaultHook(nil)
	if _, err := sharded.ResultRetrieval(context.Background(), model, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range read() {
		if v <= before[i] {
			t.Errorf("%s did not move on a retrieval that answered", counters[i])
		}
	}
}
