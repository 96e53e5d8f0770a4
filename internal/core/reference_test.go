package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
)

// referenceSegments is the grid every layout of the reference test uses:
// 4^5 = 1024 cells, few enough to load each one.
const referenceSegments = 4

// referenceRows returns a base dataset and in-bounds extra rows, so that
// base+extra (all) has the base's bounds: a static build over all and a
// live store created over base and fed extra share one grid and one id
// assignment.
func referenceRows(t *testing.T) (base *dataset.Dataset, extra [][]float64, all *dataset.Dataset) {
	t.Helper()
	full, err := dataset.GenerateSky(dataset.SkyConfig{N: 2000, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	const baseLen = 1000
	base = dataset.New(full.Schema(), baseLen)
	all = dataset.New(full.Schema(), full.Len())
	for i := 0; i < baseLen; i++ {
		for _, ds := range []*dataset.Dataset{base, all} {
			if _, err := ds.Append(full.Row(dataset.RowID(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	bounds, err := base.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	for i := baseLen; i < full.Len(); i++ {
		row := full.CopyRow(dataset.RowID(i))
		if !bounds.Contains(row) {
			continue
		}
		extra = append(extra, row)
		if _, err := all.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if len(extra) < 500 {
		t.Fatalf("only %d in-bounds extra rows", len(extra))
	}
	return base, extra, all
}

// TestDataPlaneAgainstBruteForce checks every read of the one data plane
// against a pass over the in-memory dataset — no chunk store, mapping or
// coordinator in the reference — for each on-disk layout. The layout
// parity suites compare layouts with each other; this is what anchors all
// of them to the data.
func TestDataPlaneAgainstBruteForce(t *testing.T) {
	base, extra, all := referenceRows(t)
	ctx := context.Background()
	bounds, err := all.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(bounds, referenceSegments)
	if err != nil {
		t.Fatal(err)
	}
	model := boundaryModel(t, all, testRegion(t, all), 60)

	// The reference: grid.CellOf of every row, per-center uncertainty one
	// point at a time, a full sort with the documented comparator, and
	// learn.Predict on every row.
	cellOf := make([]grid.CellID, all.Len())
	var wantPositive []uint32
	for i := 0; i < all.Len(); i++ {
		row := all.Row(dataset.RowID(i))
		if cellOf[i], err = g.CellOf(row); err != nil {
			t.Fatal(err)
		}
		cls, err := learn.Predict(model, row)
		if err != nil {
			t.Fatal(err)
		}
		if cls == learn.ClassPositive {
			wantPositive = append(wantPositive, uint32(i))
		}
	}
	if len(wantPositive) == 0 {
		t.Fatal("reference model classifies nothing positive")
	}
	wantUnc := make([]float64, g.NumCells())
	centerPost := make([]float64, g.NumCells())
	ranked := make([]grid.CellID, g.NumCells())
	for i, c := range g.Centers() {
		if wantUnc[i], err = learn.Uncertainty(model, c); err != nil {
			t.Fatal(err)
		}
		if centerPost[i], err = model.PosteriorPositive(c); err != nil {
			t.Fatal(err)
		}
		ranked[i] = grid.CellID(i)
	}
	// Pruned retrieval, as specified: a row is returned when its cell's
	// center posterior is not below the cutoff and the model classifies the
	// row positive. Cutoff 0 prunes nothing.
	wantAt := map[float64][]uint32{0: wantPositive}
	for _, cutoff := range []float64{0.05, 0.3} {
		pruned := 0
		for _, p := range centerPost {
			if p < cutoff {
				pruned++
			}
		}
		if pruned == 0 || pruned == g.NumCells() {
			t.Fatalf("cutoff %g prunes %d of %d cells; the fixture must prune some", cutoff, pruned, g.NumCells())
		}
		var want []uint32
		for _, id := range wantPositive {
			if !(centerPost[cellOf[id]] < cutoff) {
				want = append(want, id)
			}
		}
		wantAt[cutoff] = want
	}
	// Marked-segment masks for the raw scan: everything, two seeded random
	// ones (rows drop out on every dimension, so survivors are compacted),
	// and one segment per dimension.
	maskRng := rand.New(rand.NewSource(9))
	mask := func(on func(seg int) bool) [][]bool {
		m := make([][]bool, g.Dims())
		for d := range m {
			m[d] = make([]bool, referenceSegments)
			for seg := range m[d] {
				m[d][seg] = on(seg)
			}
		}
		return m
	}
	masks := [][][]bool{
		mask(func(int) bool { return true }),
		mask(func(int) bool { return maskRng.Intn(4) > 0 }),
		mask(func(int) bool { return maskRng.Intn(2) > 0 }),
		mask(func(seg int) bool { return seg == 1 }),
	}
	sort.Slice(ranked, func(a, b int) bool {
		ua, ub := wantUnc[ranked[a]], wantUnc[ranked[b]]
		if ua != ub {
			return ua > ub
		}
		return ranked[a] < ranked[b]
	})
	rng := rand.New(rand.NewSource(5))
	fetch := make([]uint32, 300)
	for i := range fetch {
		fetch[i] = uint32(rng.Intn(all.Len()))
	}
	fetch = append(fetch, fetch[:20]...) // duplicates collapse
	wantFetch := append([]uint32(nil), fetch...)
	sort.Slice(wantFetch, func(i, j int) bool { return wantFetch[i] < wantFetch[j] })
	n := 0
	for i, id := range wantFetch {
		if i == 0 || id != wantFetch[n-1] {
			wantFetch[n] = id
			n++
		}
	}
	wantFetch = wantFetch[:n]

	layouts := []struct {
		name   string
		shards int
		live   bool
	}{
		{"flat", 0, false},
		{"S=4", 4, false},
		{"flat-live", 0, true},
		{"S=2-live", 2, true},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			src := all
			if lay.live {
				src = base
			}
			if err := Build(dir, src, BuildOptions{
				TargetChunkBytes: 2048, Shards: lay.shards, SegmentsPerDim: referenceSegments, LiveIngest: lay.live,
			}); err != nil {
				t.Fatal(err)
			}
			idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: referenceSegments, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if lay.live {
				// Two flushes: reads merge three segments per shard.
				for _, part := range [][][]float64{extra[:len(extra)/2], extra[len(extra)/2:]} {
					if _, err := idx.Append(ctx, part); err != nil {
						t.Fatal(err)
					}
					if err := idx.Flush(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
					t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
				}
			}
			if idx.RowCount() != all.Len() || idx.Grid().NumCells() != g.NumCells() {
				t.Fatalf("index holds %d rows over %d cells, want %d over %d", idx.RowCount(), idx.Grid().NumCells(), all.Len(), g.NumCells())
			}

			// A cell load returns the rows inside the cell's closed box that
			// rest in the cell's shard: every row grid.CellOf puts in the
			// cell, plus rows sitting exactly on its upper faces (CellOf
			// gives those to the neighbour) when the neighbour's shard is
			// the same — always, for one shard.
			owner := make([]int, g.NumCells())
			if lay.shards > 1 {
				if owner, err = shard.CellOwners(g, lay.shards); err != nil {
					t.Fatal(err)
				}
			}
			for cell := 0; cell < g.NumCells(); cell++ {
				ids, vals, err := idx.loadCell(ctx, cell)
				if err != nil {
					t.Fatalf("cell %d: %v", cell, err)
				}
				box, err := g.CellBox(grid.CellID(cell))
				if err != nil {
					t.Fatal(err)
				}
				var want []uint32
				for i := 0; i < all.Len(); i++ {
					if owner[cellOf[i]] == owner[cell] && box.Contains(all.Row(dataset.RowID(i))) {
						want = append(want, uint32(i))
					}
				}
				if len(ids) != len(want) {
					t.Fatalf("cell %d: loaded %d rows, dataset has %d", cell, len(ids), len(want))
				}
				for i, id := range ids {
					if id != want[i] || !reflect.DeepEqual(vals[i], []float64(all.Row(dataset.RowID(id)))) {
						t.Fatalf("cell %d row %d: loaded id %d %v, want id %d %v", cell, i, id, vals[i], want[i], all.Row(dataset.RowID(want[i])))
					}
				}
			}

			rows, err := idx.FetchRows(ctx, fetch)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(wantFetch) {
				t.Fatalf("fetched %d rows, want %d", len(rows), len(wantFetch))
			}
			for i, r := range rows {
				if r.ID != wantFetch[i] || !reflect.DeepEqual(r.Vals, []float64(all.Row(dataset.RowID(r.ID)))) {
					t.Fatalf("fetched[%d] = id %d %v, want id %d", i, r.ID, r.Vals, wantFetch[i])
				}
			}

			if err := idx.UpdateUncertainty(ctx, model); err != nil {
				t.Fatal(err)
			}
			for i, u := range idx.Uncertainties() {
				if math.Float64bits(u) != math.Float64bits(wantUnc[i]) {
					t.Fatalf("uncertainty[%d] = %v, point-at-a-time reference %v", i, u, wantUnc[i])
				}
			}
			for _, k := range []int{1, 2, 17, g.NumCells()} {
				top, err := idx.MostUncertainCells(k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(top, ranked[:k]) {
					t.Fatalf("MostUncertainCells(%d) diverges from the full sort", k)
				}
			}

			// The raw scan: per part, ascending global ids beside their
			// values; over the parts, exactly the rows whose every coordinate
			// lies in a marked segment.
			compacted := false
			for m, marked := range masks {
				var want []uint32
				for i := 0; i < all.Len(); i++ {
					hit := true
					for d, v := range all.Row(dataset.RowID(i)) {
						sg, err := g.SegmentOf(d, v)
						if err != nil {
							t.Fatal(err)
						}
						hit = hit && marked[d][sg]
					}
					if hit {
						want = append(want, uint32(i))
					}
				}
				parts, _, err := idx.ShardCoordinator().Retrieve(ctx, marked)
				if err != nil {
					t.Fatalf("mask %d: %v", m, err)
				}
				var got []uint32
				row := make([]float64, g.Dims())
				for pi, part := range parts {
					if err := part.Check(g.Dims()); err != nil {
						t.Fatalf("mask %d part %d: %v", m, pi, err)
					}
					for j, id := range part.IDs {
						for d, v := range part.Blk.Row(j, row) {
							if ref := all.Row(dataset.RowID(id))[d]; math.Float64bits(v) != math.Float64bits(ref) {
								t.Fatalf("mask %d part %d: row %d dimension %d = %v, dataset has %v", m, pi, id, d, v, ref)
							}
						}
					}
					got = append(got, part.IDs...)
				}
				slices.Sort(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("mask %d: scan returned %d rows, the dataset has %d in the marked segments", m, len(got), len(want))
				}
				compacted = compacted || (len(want) > 0 && len(want) < all.Len())
			}
			if !compacted {
				t.Fatal("no mask kept some rows and dropped others; the compaction branch did not run")
			}

			for cutoff, want := range wantAt {
				got, err := idx.ResultRetrieval(ctx, model, cutoff)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cutoff %g: retrieved %d ids, the row-at-a-time reference has %d", cutoff, len(got), len(want))
				}
			}

			// The final classification runs on the worker pool: any pool
			// size must give the same ids. Everything is flushed, so a
			// reopened live store serves the same rows.
			idx.Close()
			for _, workers := range []int{1, 4, 8} {
				re, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20, SegmentsPerDim: referenceSegments, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for cutoff, want := range wantAt {
					got, err := re.ResultRetrieval(ctx, model, cutoff)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers %d cutoff %g: retrieved %d ids, want %d", workers, cutoff, len(got), len(want))
					}
				}
				re.Close()
			}
		})
	}
}

// TestOneShardObeysCoordinatorRules pins what changed on purpose when the
// flat reader became the S = 1 coordinator: a flat store reports one
// shard, a traced step carries shard_<op> spans, and failing cell loads
// degrade the step onto the resident region but — with nothing resident —
// still surface the store's error, now joined with
// shard.ErrShardUnavailable.
func TestOneShardObeysCoordinatorRules(t *testing.T) {
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace)
	idx, ds := openTestIndex(t, 2000, Options{Workers: 2})
	ctx := context.Background()
	if idx.Sharded() || idx.NumShards() != 1 {
		t.Fatalf("flat store reports Sharded=%v NumShards=%d", idx.Sharded(), idx.NumShards())
	}
	if got := idx.Registry().Gauge("uei_shards").Value(); got != 1 {
		t.Errorf("uei_shards = %v, want 1", got)
	}
	model := boundaryModel(t, ds, testRegion(t, ds), 40)
	coord := idx.ShardCoordinator()

	// Nothing resident, every load failing: the error surfaces.
	storeErr := errors.New("injected store failure")
	coord.SetFaultHook(func(_ context.Context, _, _ int, op string) error {
		if op == shard.OpLoad {
			return storeErr
		}
		return nil
	})
	_, err := idx.EnsureRegion(ctx, model)
	if !errors.Is(err, shard.ErrShardUnavailable) || !errors.Is(err, storeErr) {
		t.Fatalf("load with nothing resident: err = %v, want ErrShardUnavailable joined with the cause", err)
	}

	// A healthy traced step makes a region resident.
	coord.SetFaultHook(nil)
	tctx, root := obs.StartSpan(obs.ContextWithTrace(ctx, tracer.NewTrace()), "step")
	first, err := idx.EnsureRegion(tctx, model)
	root.End(nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.LastStepDegraded() {
		t.Error("healthy step flagged degraded")
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"shard_`+shard.OpLoad+`"`) {
		t.Errorf("traced step over a flat store recorded no shard_%s span:\n%s", shard.OpLoad, trace.String())
	}

	// Region resident, every load failing: the step stays on the resident
	// region, degraded, instead of failing. A different model moves the
	// winner off the resident cell.
	model2 := boundaryModel(t, ds, testRegion(t, ds), 55)
	if err := idx.UpdateUncertainty(ctx, model2); err != nil {
		t.Fatal(err)
	}
	top, err := idx.MostUncertainCells(1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0] == first {
		t.Fatalf("fixture: the second model keeps cell %d on top, so no load happens to fail", first)
	}
	coord.SetFaultHook(func(_ context.Context, _, _ int, op string) error {
		if op == shard.OpLoad {
			return storeErr
		}
		return nil
	})
	cell, err := idx.EnsureRegion(ctx, model2)
	if err != nil {
		t.Fatalf("degradable load failed the step: %v", err)
	}
	if cell != first || !idx.LastStepDegraded() {
		t.Errorf("EnsureRegion = cell %d degraded=%v, want resident cell %d degraded", cell, idx.LastStepDegraded(), first)
	}
}
