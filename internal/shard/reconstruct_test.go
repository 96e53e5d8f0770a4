package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// scatteredParts deals the rows of ds to `count` parts at random, so every
// part's idmap is a non-identity ascending list of global ids, and builds
// each part's store and cell mapping. It returns the parts and, per part,
// the rows it was dealt.
func scatteredParts(t *testing.T, ds *dataset.Dataset, g *grid.Grid, count, chunkBytes int, rng *rand.Rand) ([]Part, []*dataset.Dataset) {
	t.Helper()
	parts := make([]Part, count)
	subs := make([]*dataset.Dataset, count)
	for i := range subs {
		subs[i] = dataset.New(ds.Schema(), 0)
	}
	for id := 0; id < ds.Len(); id++ {
		i := rng.Intn(count)
		if id < count {
			i = id // no part stays empty
		}
		if _, err := subs[i].Append(ds.Row(dataset.RowID(id))); err != nil {
			t.Fatal(err)
		}
		parts[i].IDMap = append(parts[i].IDMap, uint32(id))
	}
	for i := range parts {
		st, err := chunkstore.Build(t.TempDir(), subs[i], chunkstore.BuildOptions{TargetChunkBytes: chunkBytes})
		if err != nil {
			t.Fatal(err)
		}
		mp, err := grid.BuildMapping(g, st)
		if err != nil {
			t.Fatal(err)
		}
		parts[i].Store, parts[i].Mapping = st, mp
	}
	return parts, subs
}

// bruteCellEntries counts the posting entries a load of the cell must
// visit, from each part's rows and the value ranges of the chunks its
// mapping lists: per chunk, the distinct values up to the box's upper edge
// and the first one past it.
func bruteCellEntries(t *testing.T, parts []Part, subs []*dataset.Dataset, box vec.Box, cell grid.CellID) int {
	t.Helper()
	visited := 0
	for i := range parts {
		chunks, err := parts[i].Mapping.Chunks(cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			values := map[float64]bool{}
			for id := 0; id < subs[i].Len(); id++ {
				if v := subs[i].At(dataset.RowID(id), c.Dim); v >= c.MinValue && v <= c.MaxValue {
					values[v] = true
				}
			}
			past := 0
			for v := range values {
				if v <= box.Max[c.Dim] {
					visited++
				} else {
					past = 1
				}
			}
			visited += past
		}
	}
	return visited
}

// TestPartsReconstructAgainstBruteForce: MergePartsCell and FetchPartsRows
// over parts with non-identity idmaps, against a filter of the whole
// dataset — rows, global-id order, entries visited. Values are small
// integers, so grid edges fall on stored values and every posting list is
// long; cells with no rows and parts that hold none of a cell's rows occur
// by construction.
func TestPartsReconstructAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const segments = 4
		ds := dataset.New(dataset.MustSchema("a", "b", "c"), 0)
		for i := 0; i < 900; i++ {
			// Column c leaves the upper half of its domain to one row.
			row := []float64{float64(rng.Intn(9)), float64(rng.Intn(13)), float64(rng.Intn(6))}
			if i == 0 {
				row[2] = 12
			}
			if _, err := ds.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		bounds, err := ds.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.New(bounds, segments)
		if err != nil {
			t.Fatal(err)
		}
		parts, subs := scatteredParts(t, ds, g, 1+int(seed), 192, rng)

		for cell := grid.CellID(0); int(cell) < g.NumCells(); cell++ {
			box, err := g.CellBox(cell)
			if err != nil {
				t.Fatal(err)
			}
			rows, entries, err := MergePartsCell(ctx, parts, box, cell)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d cell %d", seed, cell)
			requireGlobalRows(t, what, rows, ds, ds.Select(box))
			if want := bruteCellEntries(t, parts, subs, box, cell); entries != want {
				t.Fatalf("%s: %d entries visited, brute force counts %d", what, entries, want)
			}
		}

		for trial := 0; trial < 10; trial++ {
			ids := make([]uint32, 1+rng.Intn(300))
			for i := range ids {
				ids[i] = uint32(rng.Intn(ds.Len()))
			}
			// FetchPartsRows takes ascending ids (the coordinator sorts and
			// dedups before it scatters); repeats are kept on purpose.
			slices.Sort(ids)
			rows, err := FetchPartsRows(ctx, parts, ids)
			if err != nil {
				t.Fatal(err)
			}
			var want []dataset.RowID
			for _, id := range slices.Compact(slices.Clone(ids)) {
				want = append(want, dataset.RowID(id))
			}
			requireGlobalRows(t, fmt.Sprintf("seed %d fetch %d", seed, trial), rows, ds, want)
		}
	}
}

func requireGlobalRows(t *testing.T, what string, got []chunkstore.MergedRow, ds *dataset.Dataset, want []dataset.RowID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, brute force has %d", what, len(got), len(want))
	}
	for i, r := range got {
		if r.ID != uint32(want[i]) || !vec.Equal(r.Vals, ds.Row(want[i])) {
			t.Fatalf("%s: row %d is %d %v, want %d %v", what, i, r.ID, r.Vals, want[i], ds.Row(want[i]))
		}
	}
}
