package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
)

// viewFixture opens a parent index over a small generated store.
func viewFixture(t *testing.T) (*Index, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1200, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	idx, err := Open(context.Background(), dir, Options{MemoryBudgetBytes: 1 << 20, SampleSize: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx, ds
}

// fitModel trains a tiny classifier on a handful of store rows.
func fitModel(t *testing.T, ds *dataset.Dataset) learn.Classifier {
	t.Helper()
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	m := learn.NewDWKNN(3, bounds.Widths())
	var x [][]float64
	var y []int
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		x = append(x, append([]float64(nil), row...))
		if len(y) < 3 {
			y = append(y, learn.ClassPositive)
		} else {
			y = append(y, learn.ClassNegative)
		}
		return len(x) < 8
	})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConcurrentViews: several views explore the same parent index
// concurrently, each with its own sample, budget, and region residency.
// Run with -race to check the shared store/grid/mapping/pool really are
// read-only from the views' perspective.
func TestConcurrentViews(t *testing.T) {
	parent, ds := viewFixture(t)
	model := fitModel(t, ds)
	ctx := context.Background()

	const nViews = 4
	views := make([]*Index, nViews)
	for i := range views {
		v, err := parent.NewView(ViewOptions{
			MemoryBudgetBytes: 256 << 10,
			SampleSize:        100,
			Seed:              int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	var wg sync.WaitGroup
	errs := make([]error, nViews)
	counts := make([]int, nViews)
	for i, v := range views {
		wg.Add(1)
		go func(i int, v *Index) {
			defer wg.Done()
			if err := v.InitExploration(ctx); err != nil {
				errs[i] = err
				return
			}
			for iter := 0; iter < 5; iter++ {
				v.InvalidateScores()
				if _, err := v.EnsureRegion(ctx, model); err != nil {
					errs[i] = err
					return
				}
			}
			counts[i] = v.CandidateCount()
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("view %d holds no candidates", i)
		}
	}

	// Views are isolated: the parent has no resident sample or region.
	if n := parent.CandidateCount(); n != 0 {
		t.Errorf("parent gained %d candidates from its views", n)
	}

	// Closing one view leaves the others and the parent fully usable
	// (shared pool and store must survive).
	views[0].Close()
	if _, err := views[0].EnsureRegion(ctx, model); !errors.Is(err, ErrClosed) {
		t.Errorf("closed view: want ErrClosed, got %v", err)
	}
	views[1].InvalidateScores()
	if _, err := views[1].EnsureRegion(ctx, model); err != nil {
		t.Errorf("sibling view after close: %v", err)
	}
	if err := parent.UpdateUncertainty(ctx, model); err != nil {
		t.Errorf("parent after view close: %v", err)
	}
	for _, v := range views[1:] {
		v.Close()
	}
}

// TestViewBudgetIsolation: a view's region installs are truncated by its
// own budget slice, not the parent's.
func TestViewBudgetIsolation(t *testing.T) {
	parent, ds := viewFixture(t)
	model := fitModel(t, ds)
	ctx := context.Background()

	// A view with a budget so small the sample barely fits.
	v, err := parent.NewView(ViewOptions{MemoryBudgetBytes: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := v.EnsureRegion(ctx, model); err != nil {
		t.Fatal(err)
	}
	if used, cap := v.Budget().Used(), v.Budget().Capacity(); used > cap {
		t.Errorf("view over budget: %d used > %d capacity", used, cap)
	}
	if parentUsed := parent.Budget().Used(); parentUsed != 0 {
		t.Errorf("parent budget charged %d bytes by a view", parentUsed)
	}
}

// TestViewInheritsParentOptions: a view takes the parent's prefetch
// setting, σ (hence θ) and resident-region bound — ViewOptions only slices
// the budget and picks the sample.
func TestViewInheritsParentOptions(t *testing.T) {
	parent, _ := openTestIndex(t, 1200, Options{
		ResidentRegions:  2,
		EnablePrefetch:   true,
		Limiter:          iothrottle.New(1_000_000_000),
		LatencyThreshold: 10 * time.Microsecond,
	})
	v, err := parent.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if got := v.cache.MaxRegions(); got != 2 {
		t.Errorf("view resident-region bound %d, parent's 2", got)
	}
	if v.pf == nil || v.pf == parent.pf || v.theta != parent.theta {
		t.Errorf("view prefetcher %p (parent %p), θ %d (parent %d): want its own, at the parent's θ", v.pf, parent.pf, v.theta, parent.theta)
	}
}
