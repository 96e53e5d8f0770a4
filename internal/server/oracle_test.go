package server

import (
	"context"
	"errors"
	"testing"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/shard"
)

// sample returns the rows of the uniform sample a session with this seed
// and sample size starts from (the sample is keyed by both), by id.
func sample(t *testing.T, m *Manager, seed int64, size int) map[uint32][]float64 {
	t.Helper()
	v, err := m.Index().NewView(core.ViewOptions{MemoryBudgetBytes: m.cfg.TotalBudgetBytes, SampleSize: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := map[uint32][]float64{}
	v.Candidates(func(id uint32, row []float64) bool {
		rows[id] = append([]float64(nil), row...)
		return true
	})
	return rows
}

// pointSpec is a center/width oracle spec whose box holds the point
// alone: half-widths of a millionth of the store's domain.
func pointSpec(m *Manager, center []float64) *OracleSpec {
	widths := m.Index().Bounds().Widths()
	for i := range widths {
		widths[i] *= 1e-6
	}
	return &OracleSpec{Center: center, Widths: widths}
}

// TestCenterWidthSessionReadsNoDataset: a center/width session whose
// sample holds a relevant row is created, seeded, stepped and finished
// without the manager ever reconstructing the dataset.
func TestCenterWidthSessionReadsNoDataset(t *testing.T) {
	dir, _ := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	const seed, size = 7, 200
	var center []float64
	first := uint32(0)
	for id, row := range sample(t, m, seed, size) {
		if center == nil || id < first {
			center, first = row, id
		}
	}
	if center == nil {
		t.Fatal("premise: the session's sample is empty")
	}
	// A box around a sample row: the in-pool seed search finds that row.
	widths := m.Index().Bounds().Widths()
	for i := range widths {
		widths[i] *= 0.1
	}
	spec := SessionSpec{MaxLabels: 12, SampleSize: size, Seed: seed,
		Oracle: &OracleSpec{Center: center, Widths: widths}}

	if res := runScenario(t, m, spec); res.LabelsUsed == 0 {
		t.Fatal("the session solicited no labels")
	}
	if m.ds != nil {
		t.Fatal("a center/width session whose sample holds a relevant row reconstructed the dataset")
	}
}

// TestCenterWidthSessionSeedFallback: when the session's sample holds no
// relevant row, the seed comes from the reconstructed dataset — the one
// path that still reads it — and a reconstruction failure there is the
// step's error.
func TestCenterWidthSessionSeedFallback(t *testing.T) {
	dir, ds := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	const seed, size = 7, 100
	inSample := sample(t, m, seed, size)
	if len(inSample) != size {
		t.Fatalf("premise: the sample holds %d rows, want %d", len(inSample), size)
	}
	target := dataset.RowID(0)
	for inSample[uint32(target)] != nil {
		target++
	}
	spec := SessionSpec{MaxLabels: 6, SampleSize: size, Seed: seed, Oracle: pointSpec(m, ds.CopyRow(target))}

	ctx := context.Background()
	info, err := m.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.ds != nil {
		t.Fatal("create reconstructed the dataset")
	}
	if _, err := m.Step(ctx, info.ID, StepRequest{}); err != nil {
		t.Fatal(err)
	}
	if m.ds == nil {
		t.Fatal("the seed fallback did not reconstruct the dataset")
	}
	h, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	snap := h.sess.Snapshot()
	h.mu.Unlock()
	if len(snap.IDs) == 0 || snap.IDs[0] != uint32(target) || snap.Y[0] != 1 {
		t.Fatalf("first label %v / %v, want row %d labeled positive", snap.IDs, snap.Y, target)
	}

	broken := newTestManager(t, dir, nil)
	info, err = broken.Create(ctx, spec)
	if err != nil {
		t.Fatalf("create must not read the dataset: %v", err)
	}
	unreadable := errors.New("store unreadable")
	broken.Index().ShardCoordinator().SetFaultHook(func(_ context.Context, _ int, op string) error {
		if op == shard.OpFetch {
			return unreadable
		}
		return nil
	})
	if _, err := broken.Step(ctx, info.ID, StepRequest{}); !errors.Is(err, unreadable) {
		t.Fatalf("step over a failed reconstruction: err = %v, want the load error", err)
	}
}

// TestCenterWidthSessionLabelsAppendedRows: on a live store, the user of a
// center/width session created after an append labels the appended row —
// as a view that followed the append reads it — by its values, not by a
// dataset reconstructed at the serving index's older epoch.
func TestCenterWidthSessionLabelsAppendedRows(t *testing.T) {
	dir, ds := buildLiveStore(t, 1500)
	m := newTestManager(t, dir, func(c *Config) {
		c.LiveIngest = true
		c.FollowLive = true
	})
	ctx := context.Background()
	// A selectivity session first, so the reconstructed dataset exists
	// and predates the append.
	if _, err := m.Create(ctx, SessionSpec{MaxLabels: 5, Oracle: &OracleSpec{Selectivity: 0.05}}); err != nil {
		t.Fatal(err)
	}

	row := ds.CopyRow(0)
	row[0] += 1e-3 * m.Index().Bounds().Widths()[0]
	ack, err := m.Append(ctx, AppendRequest{Rows: [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Index().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := m.Index().NewView(core.ViewOptions{MemoryBudgetBytes: m.cfg.TotalBudgetBytes, SampleSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.AdvanceSnapshot(); err != nil {
		t.Fatal(err)
	}
	read, err := v.FetchRows(ctx, []uint32{ack.FirstID})
	if err != nil || len(read) != 1 {
		t.Fatalf("reading the appended row back: %v, %d rows", err, len(read))
	}

	spec := SessionSpec{MaxLabels: 5, Oracle: pointSpec(m, row)}
	if _, err := m.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	user, _, err := m.oracleFor(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := user.Label(ack.FirstID, read[0].Vals); got != oracle.Positive {
		t.Fatalf("appended in-region row %d labeled %v", ack.FirstID, got)
	}
}
