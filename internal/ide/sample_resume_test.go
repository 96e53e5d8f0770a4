package ide

import (
	"context"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/oracle"
)

// preparedSample wraps a UEI provider and records U's ids as Prepare left
// them, before a resumed session removes its labeled rows.
type preparedSample struct {
	*UEIProvider
	idx    *core.Index
	sample []uint32
}

func (p *preparedSample) Prepare(ctx context.Context) error {
	if err := p.UEIProvider.Prepare(ctx); err != nil {
		return err
	}
	p.idx.Candidates(func(id uint32, _ []float64) bool { p.sample = append(p.sample, id); return true })
	return nil
}

// TestSamplePoolResumeReproducesU: a session's view is evicted after a few
// labels and resumed from its snapshot on a new view of the same index,
// and again on a view of the store reopened as after a restart. Both
// resumed sessions start from the U the session first drew, and never
// re-select a labeled row.
func TestSamplePoolResumeReproducesU(t *testing.T) {
	f := newFixture(t, 2500, 0.01)
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func() *core.Index {
		idx, err := core.Open(ctx, dir, core.Options{MemoryBudgetBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		return idx
	}
	// run explores labels more rows on a fresh view of idx, resuming from
	// snap when it is non-nil, and returns U as prepared and the snapshot.
	run := func(idx *core.Index, labels int, snap *Snapshot) ([]uint32, Snapshot) {
		t.Helper()
		view, err := idx.NewView(core.ViewOptions{MemoryBudgetBytes: 1 << 20, SampleSize: 120, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		inner, err := NewUEIProvider(view)
		if err != nil {
			t.Fatal(err)
		}
		p := &preparedSample{UEIProvider: inner, idx: view}
		orc, err := oracle.New(f.ds, f.region)
		if err != nil {
			t.Fatal(err)
		}
		var picks []uint32
		cfg := Config{
			MaxLabels:        labels,
			EstimatorFactory: f.estimatorFactory(t),
			Strategy:         al.LeastConfidence{},
			Seed:             5,
			SeedWithPositive: snap == nil,
			OnIteration:      func(it IterationInfo) { picks = append(picks, it.SelectedID) },
		}
		var sess *Session
		if snap == nil {
			sess, err = NewSession(cfg, p, OracleLabeler{O: orc})
		} else {
			sess, err = NewSessionFromSnapshot(cfg, p, OracleLabeler{O: orc}, *snap)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			for _, id := range picks {
				if slices.Contains(snap.IDs, id) {
					t.Fatalf("resumed session re-selected labeled row %d", id)
				}
			}
		}
		return p.sample, sess.Snapshot()
	}
	idx := open()
	first, snap := run(idx, 12, nil)
	if len(first) != 120 {
		t.Fatalf("U holds %d rows, want γ = 120", len(first))
	}
	resumed, _ := run(idx, 6, &snap)
	if !slices.Equal(resumed, first) {
		t.Errorf("resumed U %v, first %v", resumed, first)
	}
	restarted, _ := run(open(), 6, &snap)
	if !slices.Equal(restarted, first) {
		t.Errorf("U after a reopen %v, first %v", restarted, first)
	}
}
