package grid

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

func unitBox(d int) vec.Box {
	min := make(vec.Point, d)
	max := make(vec.Point, d)
	for i := range max {
		max[i] = 1
	}
	return vec.NewBox(min, max)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(unitBox(2), 0); err == nil {
		t.Error("zero segments should fail")
	}
	if _, err := NewWithSegments(unitBox(2), []int{1}); err == nil {
		t.Error("segment arity mismatch should fail")
	}
	if _, err := NewWithSegments(unitBox(2), []int{2, -1}); err == nil {
		t.Error("negative segments should fail")
	}
	degenerate := vec.NewBox(vec.Point{0, 5}, vec.Point{1, 5})
	if _, err := NewWithSegments(degenerate, []int{2, 3}); err == nil {
		t.Error("multi-segment degenerate dimension should fail")
	}
	if _, err := NewWithSegments(degenerate, []int{2, 1}); err != nil {
		t.Errorf("single-segment degenerate dimension should work: %v", err)
	}
}

func TestPaperConfiguration(t *testing.T) {
	// 5 dims x 5 segments = 3125 symbolic index points (Table 1).
	g, err := New(unitBox(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 3125 {
		t.Errorf("NumCells = %d, want 3125", g.NumCells())
	}
	if got := len(g.Centers()); got != 3125 {
		t.Errorf("Centers = %d points", got)
	}
}

func TestNewForPointBudget(t *testing.T) {
	g, err := NewForPointBudget(unitBox(5), 3125)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 3125 {
		t.Errorf("NumCells = %d, want 3125", g.NumCells())
	}
	// Budgets between perfect powers round down.
	g2, err := NewForPointBudget(unitBox(2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumCells() != 9 {
		t.Errorf("NumCells = %d, want 9", g2.NumCells())
	}
	if _, err := NewForPointBudget(unitBox(2), 0); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestCoordsIDRoundTrip(t *testing.T) {
	g, err := NewWithSegments(unitBox(3), []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 24 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	for id := 0; id < g.NumCells(); id++ {
		coords, err := g.Coords(CellID(id))
		if err != nil {
			t.Fatal(err)
		}
		back, err := g.ID(coords)
		if err != nil {
			t.Fatal(err)
		}
		if back != CellID(id) {
			t.Fatalf("round trip %d -> %v -> %d", id, coords, back)
		}
	}
	if _, err := g.Coords(-1); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := g.Coords(CellID(g.NumCells())); err == nil {
		t.Error("overflow id should fail")
	}
	if _, err := g.ID([]int{0, 0}); err == nil {
		t.Error("short coords should fail")
	}
	if _, err := g.ID([]int{0, 0, 4}); err == nil {
		t.Error("out-of-range coord should fail")
	}
}

func TestCellBoxesTileTheDomain(t *testing.T) {
	bounds := vec.NewBox(vec.Point{-2, 10}, vec.Point{2, 20})
	g, err := NewWithSegments(bounds, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var volume float64
	for id := 0; id < g.NumCells(); id++ {
		box, err := g.CellBox(CellID(id))
		if err != nil {
			t.Fatal(err)
		}
		volume += box.Volume()
		if !bounds.Intersects(box) {
			t.Fatalf("cell %d escapes the domain", id)
		}
	}
	if diff := volume - bounds.Volume(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cell volumes sum to %g, domain is %g", volume, bounds.Volume())
	}
}

func TestCellOfAndCenters(t *testing.T) {
	g, err := New(unitBox(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each cell contains its own center.
	for id := 0; id < g.NumCells(); id++ {
		c, err := g.Center(CellID(id))
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.CellOf(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != CellID(id) {
			t.Fatalf("center of cell %d mapped to cell %d", id, got)
		}
	}
	// The domain max belongs to the last cell.
	id, err := g.CellOf(vec.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != CellID(g.NumCells()-1) {
		t.Errorf("domain max in cell %d, want %d", id, g.NumCells()-1)
	}
	if _, err := g.CellOf(vec.Point{1.1, 0}); err == nil {
		t.Error("point outside domain should fail")
	}
	if _, err := g.CellOf(vec.Point{0.5}); err == nil {
		t.Error("dims mismatch should fail")
	}
}

// domainEdgeCases is what a domain [2, 6] must say about the values at and
// around its edges and about the values that are not numbers: NaN compares
// false with everything, so only a test of the form !(v >= min && v <= max)
// keeps it out.
var domainEdgeCases = []struct {
	v      float64
	inside bool
}{
	{2, true}, {6, true}, {4, true},
	{math.Nextafter(2, 1), false}, {math.Nextafter(6, 7), false},
	{math.Inf(1), false}, {math.Inf(-1), false},
	{math.NaN(), false}, {math.Copysign(math.NaN(), -1), false},
}

func TestSegmentOfRejectsNonFinite(t *testing.T) {
	g, err := New(vec.NewBox(vec.Point{0, 2}, vec.Point{1, 6}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range domainEdgeCases {
		seg, err := g.SegmentOf(1, c.v)
		if (err == nil) != c.inside {
			t.Errorf("SegmentOf(1, %v) = %d, %v; inside the domain: %v", c.v, seg, err, c.inside)
		}
		if err == nil && (seg < 0 || seg >= 4) {
			t.Errorf("SegmentOf(1, %v) = %d, not a segment", c.v, seg)
		}
	}
}

func TestCellOfRejectsNonFinite(t *testing.T) {
	g, err := New(vec.NewBox(vec.Point{0, 2}, vec.Point{1, 6}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range domainEdgeCases {
		// The second coordinate maps to segment 0 of a 4-segment dimension
		// when truncated as int(NaN) is on arm64, so only the bounds test
		// can reject it.
		id, err := g.CellOf(vec.Point{0.5, c.v})
		if (err == nil) != c.inside {
			t.Errorf("CellOf({0.5, %v}) = %d, %v; inside the domain: %v", c.v, id, err, c.inside)
		}
	}
}

func TestQuickCellOfConsistentWithCellBox(t *testing.T) {
	g, err := NewWithSegments(unitBox(3), []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		id, err := g.CellOf(p)
		if err != nil {
			return false
		}
		box, err := g.CellBox(id)
		if err != nil {
			return false
		}
		return box.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func buildStoreAndGrid(t *testing.T, n int, segments int) (*chunkstore.Store, *Grid, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	st, err := chunkstore.Build(t.TempDir(), ds, chunkstore.BuildOptions{TargetChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(st.Bounds(), segments)
	if err != nil {
		t.Fatal(err)
	}
	return st, g, ds
}

func TestBuildMappingAndLoadCell(t *testing.T) {
	st, g, ds := buildStoreAndGrid(t, 1500, 3)
	m, err := BuildMapping(g, st)
	if err != nil {
		t.Fatal(err)
	}
	// For every cell: merging the cell's box returns exactly the tuples
	// the dataset brute-force places there, and every chunk the merge
	// could touch is within the mapping's chunk set.
	totalRows := 0
	for id := 0; id < g.NumCells(); id++ {
		box, err := g.CellBox(CellID(id))
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := st.MergeRegion(context.Background(), box)
		if err != nil {
			t.Fatal(err)
		}
		totalRows += len(rows)
		chunks, err := m.Chunks(CellID(id))
		if err != nil {
			t.Fatal(err)
		}
		// The mapping must cover each dimension's overlapping chunk run.
		for d := 0; d < g.Dims(); d++ {
			want, err := st.ChunksOverlapping(d, box.Min[d], box.Max[d])
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, c := range chunks {
				if c.Dim == d {
					got++
				}
			}
			if got != len(want) {
				t.Fatalf("cell %d dim %d: mapping has %d chunks, store says %d", id, d, got, len(want))
			}
		}
	}
	// Cells tile the domain: boundary tuples belong to up to 2^d adjacent
	// cell boxes (closed boxes share faces), so the per-cell merge total is
	// at least the dataset size but may double-count boundaries.
	if totalRows < ds.Len() {
		t.Errorf("cells cover %d rows, dataset has %d", totalRows, ds.Len())
	}
}

func TestBuildMappingDimsMismatch(t *testing.T) {
	st, _, _ := buildStoreAndGrid(t, 200, 2)
	g2, err := New(unitBox(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMapping(g2, st); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestMappingChunksRange(t *testing.T) {
	st, g, _ := buildStoreAndGrid(t, 300, 2)
	m, err := BuildMapping(g, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Chunks(-1); err == nil {
		t.Error("negative cell should fail")
	}
	if _, err := m.Chunks(CellID(g.NumCells())); err == nil {
		t.Error("overflow cell should fail")
	}
}
