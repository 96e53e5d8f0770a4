package core

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

// appendDWKNNSeq builds the IDE refit sequence: a fresh DWKNN per step,
// each fit on the previous step's labeled set plus `step` appended labels
// — exactly what Session.refit produces under append-only labeling, so
// the exact incremental rescorer fires on every step after the first.
func appendDWKNNSeq(t testing.TB, ds *dataset.Dataset, steps, base, step int) []learn.Classifier {
	t.Helper()
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	scales := bounds.Widths()
	var X [][]float64
	var y []int
	add := func(n int) {
		for i := 0; i < n; i++ {
			id := (len(X)*131 + 17) % ds.Len()
			row := ds.CopyRow(dataset.RowID(id))
			X = append(X, row)
			y = append(y, len(X)%2)
		}
	}
	add(base)
	var models []learn.Classifier
	for s := 0; s < steps; s++ {
		m := learn.NewDWKNN(5, scales)
		if err := m.Fit(append([][]float64(nil), X...), append([]int(nil), y...)); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		add(step)
	}
	return models
}

// scoreSeq drives one index through the model sequence, capturing the
// full uncertainty vector and the top-3 selection after every pass.
func scoreSeq(t testing.TB, idx *Index, models []learn.Classifier) (scores [][]float64, tops [][]int) {
	t.Helper()
	ctx := context.Background()
	for _, m := range models {
		idx.InvalidateScores()
		if err := idx.UpdateUncertainty(ctx, m); err != nil {
			t.Fatal(err)
		}
		scores = append(scores, append([]float64(nil), idx.Uncertainties()...))
		top, err := idx.MostUncertainCells(3)
		if err != nil {
			t.Fatal(err)
		}
		ti := make([]int, len(top))
		for i, c := range top {
			ti[i] = int(c)
		}
		tops = append(tops, ti)
	}
	return scores, tops
}

// pointwise is the row-form reference: one model call per row.
func pointwise(t testing.TB, rows [][]float64, score func(x []float64) (float64, error)) []float64 {
	t.Helper()
	out := make([]float64, len(rows))
	for i, x := range rows {
		v, err := score(x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// specScores is the row-form specification the block path is held to:
// learn.Uncertainty of each of the grid's centers, one vector per model,
// and the first k cells of a full sort under the selection order (higher
// uncertainty, then lower cell id).
func specScores(t testing.TB, idx *Index, models []learn.Classifier, k int) (scores [][]float64, tops [][]int) {
	t.Helper()
	centers := idx.Grid().Centers()
	for _, m := range models {
		want := pointwise(t, centers, func(x []float64) (float64, error) { return learn.Uncertainty(m, x) })
		order := make([]int, len(want))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return want[order[a]] > want[order[b]] })
		scores = append(scores, want)
		tops = append(tops, order[:k])
	}
	return scores, tops
}

// requireBitIdentical fails on the first score whose float64 bits differ
// from the specification's, or any top-k divergence.
func requireBitIdentical(t *testing.T, wantS, gotS [][]float64, wantT, gotT [][]int) {
	t.Helper()
	if len(wantS) != len(gotS) {
		t.Fatalf("pass counts differ: %d vs %d", len(wantS), len(gotS))
	}
	for p := range wantS {
		if len(wantS[p]) != len(gotS[p]) {
			t.Fatalf("pass %d: score lengths differ", p)
		}
		for i := range wantS[p] {
			if math.Float64bits(wantS[p][i]) != math.Float64bits(gotS[p][i]) {
				t.Fatalf("pass %d cell %d: row spec %x index %x (%v vs %v)",
					p, i, math.Float64bits(wantS[p][i]), math.Float64bits(gotS[p][i]),
					wantS[p][i], gotS[p][i])
			}
		}
		if fmt.Sprint(wantT[p]) != fmt.Sprint(gotT[p]) {
			t.Fatalf("pass %d: top-k differ: %v vs %v", p, wantT[p], gotT[p])
		}
	}
}

// requireMatchesSpec drives idx through the model sequence and holds every
// pass to the row-form specification.
func requireMatchesSpec(t *testing.T, idx *Index, models []learn.Classifier) {
	t.Helper()
	wantS, wantT := specScores(t, idx, models, 3)
	gotS, gotT := scoreSeq(t, idx, models)
	requireBitIdentical(t, wantS, gotS, wantT, gotT)
}

func parityOptions() Options {
	return Options{Workers: 2, MemoryBudgetBytes: 1 << 20}
}

// TestScoreKernelParityFlat: the index's scoring passes (including the
// exact incremental ones fired by the append-only model sequence) must be
// byte-identical to row-at-a-time scoring of the grid's centers on a flat
// store.
func TestScoreKernelParityFlat(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1500, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	models := appendDWKNNSeq(t, ds, 6, 20, 3)
	// A refit on shuffled labels (not an append) mid-sequence forces a
	// full rescore after incremental passes.
	models = append(models, appendDWKNNSeq(t, ds, 1, 37, 1)...)

	idx, err := Open(context.Background(), dir, parityOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	requireMatchesSpec(t, idx, models)

	// The final result set must match too: retrieval scores cell centers
	// and rows through the block kernels, the specification one row at a
	// time.
	last := models[len(models)-1]
	const cutoff = 0.3
	centerPost := pointwise(t, idx.Grid().Centers(), last.PosteriorPositive)
	var wantIDs []uint32
	for i := 0; i < ds.Len(); i++ {
		row := ds.Row(dataset.RowID(i))
		cell, err := idx.Grid().CellOf(row)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := learn.Predict(last, row)
		if err != nil {
			t.Fatal(err)
		}
		if cls == learn.ClassPositive && !(centerPost[cell] < cutoff) {
			wantIDs = append(wantIDs, uint32(i))
		}
	}
	gotIDs, err := idx.ResultRetrieval(context.Background(), last, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantIDs) == 0 || fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Fatalf("result sets differ: row spec %d rows, index %d rows", len(wantIDs), len(gotIDs))
	}

	if idx.Registry().Counter("uei_score_skipped_cells_total").Value() == 0 {
		t.Error("index skipped no cells over an append-only refit sequence")
	}
}

// TestScoreKernelParitySharded repeats the parity check over the S=2
// scatter-gather layout, where dirty subsets travel the per-shard
// Backend.ScoreAll spec.
func TestScoreKernelParitySharded(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1500, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	opts := parityOptions()
	opts.Shards = 2
	idx, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	requireMatchesSpec(t, idx, appendDWKNNSeq(t, ds, 6, 20, 3))
	if idx.Registry().Counter("uei_score_skipped_cells_total").Value() == 0 {
		t.Error("sharded index skipped no cells")
	}
}

// TestScoreKernelParityRemote runs the same sequence with the shards
// served over the wire protocol: dirty subsets and d_k² bounds must
// round-trip JSON without changing a bit.
func TestScoreKernelParityRemote(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1200, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	backing, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20, Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	man, err := shard.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewServer(remote.NewServer(backing.ShardCoordinator(), man, func(string, ...any) {}))
	defer w.Close()

	rem, err := Open(ctx, "", Options{
		MemoryBudgetBytes: 1 << 20, Workers: 2, ShardEndpoints: []string{w.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	requireMatchesSpec(t, rem, appendDWKNNSeq(t, ds, 5, 20, 3))
	if rem.Registry().Counter("uei_score_skipped_cells_total").Value() == 0 {
		t.Error("remote index skipped no cells")
	}
}

// TestScoreKernelParityLiveIngest covers the epoch boundary: scores stay
// bit-identical to the specification across append + flush +
// AdvanceSnapshot, and the advance resets the incremental state (the pass
// after it is full, not a delta).
func TestScoreKernelParityLiveIngest(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1000, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	idx, err := Open(ctx, dir, parityOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	models := appendDWKNNSeq(t, ds, 4, 20, 3)
	requireMatchesSpec(t, idx, models[:2])
	skipped := idx.Registry().Counter("uei_score_skipped_cells_total")
	if skipped.Value() == 0 {
		t.Error("live index skipped no cells before the epoch boundary")
	}
	rows := [][]float64{ds.CopyRow(0), ds.CopyRow(1)}
	if _, err := idx.Append(ctx, rows); err != nil {
		t.Fatal(err)
	}
	if err := idx.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
		t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
	}
	before := skipped.Value()
	requireMatchesSpec(t, idx, models[2:3])
	if got := skipped.Value(); got != before {
		t.Errorf("the pass after the epoch advance skipped %d cells; it must be full", got-before)
	}
	requireMatchesSpec(t, idx, models[3:])
}

// TestScoreKernelExactSkipAll: rescoring with a byte-equal refit (zero
// new labels) must touch no cell and keep the vector bit-identical to the
// specification.
func TestScoreKernelExactSkipAll(t *testing.T) {
	idx, ds := openTestIndex(t, 1000, parityOptions())
	models := appendDWKNNSeq(t, ds, 1, 25, 0)
	requireMatchesSpec(t, idx, models)
	scored0 := idx.Registry().Counter("uei_score_scored_cells_total").Value()

	// Same training set, fresh model object: AppendDelta sees zero new
	// rows and the whole pass is skipped.
	requireMatchesSpec(t, idx, appendDWKNNSeq(t, ds, 1, 25, 0))
	if got := idx.Registry().Counter("uei_score_scored_cells_total").Value(); got != scored0 {
		t.Errorf("identical refit rescored %d cells", got-scored0)
	}
	if idx.Registry().Counter("uei_score_skipped_cells_total").Value() != int64(idx.NumIndexPoints()) {
		t.Error("identical refit did not skip every cell")
	}
}

// TestScoreKernelViewIsolation: views share the packed block but keep
// private incremental state — interleaved scoring on two views must not
// cross-contaminate their uncertainty vectors.
func TestScoreKernelViewIsolation(t *testing.T) {
	idx, ds := openTestIndex(t, 1200, parityOptions())
	models := appendDWKNNSeq(t, ds, 3, 20, 4)
	other := appendDWKNNSeq(t, ds, 3, 31, 5)

	v1, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	for i := range models {
		requireMatchesSpec(t, v1, models[i:i+1])
		requireMatchesSpec(t, v2, other[i:i+1])
	}
	if idx.Registry().Counter("uei_score_skipped_cells_total").Value() == 0 {
		t.Error("interleaved views skipped no cells; their incremental state did not survive each other's passes")
	}
}

// TestScoreStateLifetime follows the memory behind incremental scoring: the
// table is sized to |P| by the first DWKNN pass and stays that size,
// AdvanceSnapshot drops its lists but keeps the storage, a view holds its
// own, and Close gives everything back — all of it visible on the
// uei_score_state_bytes gauge and in Stats, none of it in the budget.
func TestScoreStateLifetime(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1000, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	idx, err := Open(ctx, dir, parityOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if got := idx.Stats().ScoreStateBytes; got != 0 {
		t.Fatalf("a fresh index holds %d bytes of score state", got)
	}
	models := appendDWKNNSeq(t, ds, 4, 20, 3)
	budgetBefore := idx.Budget().Used()
	scoreSeq(t, idx, models[:2])
	// K = 5 here: 12·5 + 8 bytes of list and posterior, 8 of (id, slot).
	want := int64(idx.NumIndexPoints()) * (12*5 + 8 + 8)
	if got := idx.Stats().ScoreStateBytes; got != want {
		t.Fatalf("score state after two passes: %d bytes, want %d", got, want)
	}
	if idx.Budget().Used() != budgetBefore {
		t.Fatalf("score state was charged to the memory budget: %d -> %d", budgetBefore, idx.Budget().Used())
	}

	if _, err := idx.Append(ctx, [][]float64{ds.CopyRow(0), ds.CopyRow(1)}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
		t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
	}
	if idx.ptab.Len() != 0 || idx.ptab.Bytes() != want {
		t.Fatalf("after AdvanceSnapshot the table holds %d lists in %d bytes, want 0 in %d", idx.ptab.Len(), idx.ptab.Bytes(), want)
	}
	scoreSeq(t, idx, models[2:])
	if got := idx.Stats().ScoreStateBytes; got != want {
		t.Fatalf("score state after the epoch: %d bytes, want %d", got, want)
	}

	v, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	scoreSeq(t, v, models[:1])
	if got := idx.Stats().ScoreStateBytes; got != 2*want {
		t.Fatalf("index plus one view: %d bytes, want %d", got, 2*want)
	}
	v.Close()
	if v.ptab.Bytes() != 0 || idx.Stats().ScoreStateBytes != want {
		t.Fatalf("closed view keeps %d bytes; gauge %d, want %d", v.ptab.Bytes(), idx.Stats().ScoreStateBytes, want)
	}
	idx.Close()
	if idx.ptab.Bytes() != 0 || idx.Stats().ScoreStateBytes != 0 {
		t.Fatalf("closed index keeps %d bytes; gauge %d", idx.ptab.Bytes(), idx.Stats().ScoreStateBytes)
	}
}
