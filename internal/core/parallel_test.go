package core

import (
	"context"
	"errors"
	"testing"

	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/oracle"
)

// TestParallelScoringParity is the tentpole determinism guarantee: the same
// store scored with 1, 4, and 8 workers must produce bit-identical
// uncertainty vectors and the identical most-uncertain cell ranking. Run
// under -race this also exercises the shard-disjointness of the pool writes.
func TestParallelScoringParity(t *testing.T) {
	ctx := context.Background()

	type snapshot struct {
		unc  []float64
		top  []int
		sync float64
	}
	score := func(workers int) snapshot {
		idx, ds := openTestIndex(t, 1200, Options{Workers: workers, Seed: 9})
		if err := idx.InitExploration(ctx); err != nil {
			t.Fatal(err)
		}
		model := boundaryModel(t, ds, testRegion(t, ds), 40)
		if err := idx.UpdateUncertainty(ctx, model); err != nil {
			t.Fatal(err)
		}
		unc := append([]float64(nil), idx.Uncertainties()...)
		cells, err := idx.MostUncertainCells(16)
		if err != nil {
			t.Fatal(err)
		}
		top := make([]int, len(cells))
		for i, c := range cells {
			top[i] = int(c)
		}
		return snapshot{unc: unc, top: top, sync: idx.MaxUncertainty()}
	}

	want := score(1)
	for _, w := range []int{4, 8} {
		got := score(w)
		if len(got.unc) != len(want.unc) {
			t.Fatalf("workers=%d: %d uncertainties, want %d", w, len(got.unc), len(want.unc))
		}
		for i := range want.unc {
			if got.unc[i] != want.unc[i] {
				t.Fatalf("workers=%d: uncertainty[%d] = %v, serial %v", w, i, got.unc[i], want.unc[i])
			}
		}
		if len(got.top) != len(want.top) {
			t.Fatalf("workers=%d: top-k size %d, want %d", w, len(got.top), len(want.top))
		}
		for i := range want.top {
			if got.top[i] != want.top[i] {
				t.Fatalf("workers=%d: top[%d] = cell %d, serial cell %d", w, i, got.top[i], want.top[i])
			}
		}
		if got.sync != want.sync {
			t.Fatalf("workers=%d: MaxUncertainty %v != %v", w, got.sync, want.sync)
		}
	}
}

// TestParallelExplorationParity runs the full per-iteration loop (score,
// select, swap) in serial and with 8 workers and requires the identical
// sequence of region swaps — byte-identical cell selections end to end.
func TestParallelExplorationParity(t *testing.T) {
	ctx := context.Background()

	run := func(workers int) []int {
		idx, ds := openTestIndex(t, 1500, Options{Workers: workers, Seed: 5})
		if err := idx.InitExploration(ctx); err != nil {
			t.Fatal(err)
		}
		region := testRegion(t, ds)
		var swaps []int
		for labels := 20; labels <= 60; labels += 10 {
			model := boundaryModel(t, ds, region, labels)
			if err := idx.UpdateUncertainty(ctx, model); err != nil {
				t.Fatal(err)
			}
			cell, err := idx.EnsureRegion(ctx, model)
			if err != nil {
				t.Fatal(err)
			}
			swaps = append(swaps, int(cell))
		}
		return swaps
	}

	serial := run(1)
	parallel := run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("swap counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("iteration %d: serial swapped to cell %d, parallel to %d", i, serial[i], parallel[i])
		}
	}
}

// TestCloseIdempotent: Close twice (plus the t.Cleanup Close) must not
// panic, and operations after Close must fail with ErrClosed.
func TestCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	idx, ds := openTestIndex(t, 500, Options{Workers: 4})
	if err := idx.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	model := boundaryModel(t, ds, testRegion(t, ds), 30)
	if err := idx.UpdateUncertainty(ctx, model); err != nil {
		t.Fatal(err)
	}

	idx.Close()
	idx.Close()

	if err := idx.InitExploration(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("InitExploration after Close: want ErrClosed, got %v", err)
	}
	if err := idx.UpdateUncertainty(ctx, model); !errors.Is(err, ErrClosed) {
		t.Errorf("UpdateUncertainty after Close: want ErrClosed, got %v", err)
	}
	if _, err := idx.EnsureRegion(ctx, model); !errors.Is(err, ErrClosed) {
		t.Errorf("EnsureRegion after Close: want ErrClosed, got %v", err)
	}
}

// TestCloseMidPrefetch closes the index while the prefetcher holds an
// in-flight background load that only cancellation ends; Close must cancel
// it and block until the worker exits rather than leak or wait on it, and
// a double Close afterwards stays safe.
func TestCloseMidPrefetch(t *testing.T) {
	ctx := context.Background()
	idx, ds := openTestIndex(t, 2000, Options{
		Workers:        4,
		EnablePrefetch: true,
		Limiter:        iothrottle.New(1 << 30),
		Seed:           3,
	})
	if err := idx.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	// Nothing is resident yet, so the first region loads synchronously.
	first, err := idx.EnsureRegion(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := oracle.FindRegion(ds, 0.05, 0.5, 77, 8)
	if err != nil {
		t.Fatal(err)
	}
	m2 := boundaryModel(t, ds, r2, 120)
	idx.InvalidateScores()
	idx.ShardCoordinator().SetFaultHook(func(ctx context.Context, _ int, op string) error {
		if op == "load" {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	got, err := idx.EnsureRegion(ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	if top, _ := idx.MostUncertainCells(1); top[0] == first {
		t.Skip("model change did not move the target cell")
	}
	if got != first {
		t.Fatalf("EnsureRegion swapped to %d; the new target's load must defer", got)
	}
	idx.Close()
	idx.Close()
}

// TestUpdateUncertaintyCanceled: a canceled context aborts the scoring pass
// and surfaces context.Canceled.
func TestUpdateUncertaintyCanceled(t *testing.T) {
	idx, ds := openTestIndex(t, 800, Options{Workers: 4})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	model := boundaryModel(t, ds, testRegion(t, ds), 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := idx.UpdateUncertainty(ctx, model); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
