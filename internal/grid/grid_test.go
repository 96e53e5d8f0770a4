package grid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// boxVolume is the product of b's extents.
func boxVolume(b vec.Box) float64 {
	v := 1.0
	for i := range b.Min {
		v *= b.Max[i] - b.Min[i]
	}
	return v
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
		volume += boxVolume(box)
		if !bounds.Intersects(box) {
			t.Fatalf("cell %d escapes the domain", id)
		}
	}
	if diff := volume - boxVolume(bounds); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cell volumes sum to %g, domain is %g", volume, boxVolume(bounds))
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

// TestCellOfBoundaryRule pins the rule CellBox's doc states: a value
// exactly on an interior boundary lands in the higher segment, and the
// domain maximum in the last one. SegmentOf agrees.
func TestCellOfBoundaryRule(t *testing.T) {
	g, err := New(vec.NewBox(vec.Point{0, 0}, vec.Point{10, 10}), 5) // segments 2 wide
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    vec.Point
		want []int
	}{
		{vec.Point{4, 1}, []int{2, 0}},  // on the boundary between segments 1 and 2
		{vec.Point{10, 4}, []int{4, 2}}, // the domain maximum, and a boundary
		{vec.Point{10, 10}, []int{4, 4}},
	} {
		id, err := g.CellOf(c.p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.ID(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("CellOf(%v) = %d, want %d (segments %v)", c.p, id, want, c.want)
		}
		for d, v := range c.p {
			if seg, err := g.SegmentOf(d, v); err != nil || seg != c.want[d] {
				t.Errorf("SegmentOf(%d, %g) = %d, %v, want %d", d, v, seg, err, c.want[d])
			}
		}
	}
}

// TestCellOfAllocatesNothing: partitioning, appends and the retrieval trim
// call CellOf once per row.
func TestCellOfAllocatesNothing(t *testing.T) {
	g, err := New(unitBox(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := vec.Point{0.1, 0.3, 0.5, 0.7, 1}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := g.CellOf(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CellOf allocates %v times a call", n)
	}
}

// TestMappingMatchesCellBoxes: the per-segment mapping gives every cell
// the chunks its own box overlaps, as deriving them from CellBox and
// ChunksOverlapping does. Stores: a flat one; three parts each holding the
// rows of every third cell over the whole domain, as an S = 3 layout does;
// and one whose grid domain reaches past its data, so a segment overlaps no
// chunk (run {1, 0}).
func TestMappingMatchesCellBoxes(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(bounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	build := func(rows [][]float64) *chunkstore.Store {
		part := dataset.New(ds.Schema(), len(rows))
		for _, row := range rows {
			part.Append(row)
		}
		st, err := chunkstore.Build(t.TempDir(), part, chunkstore.BuildOptions{TargetChunkBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	all := make([][]float64, ds.Len())
	parts := make([][][]float64, 3)
	for i := range all {
		all[i] = ds.Row(dataset.RowID(i))
		cell, err := g.CellOf(all[i])
		if err != nil {
			t.Fatal(err)
		}
		parts[cell%3] = append(parts[cell%3], all[i])
	}
	check := func(name string, g *Grid, st *chunkstore.Store) (empty int) {
		m, err := BuildMapping(g, st)
		if err != nil {
			t.Fatal(err)
		}
		for id := CellID(0); int(id) < g.NumCells(); id++ {
			box, err := g.CellBox(id)
			if err != nil {
				t.Fatal(err)
			}
			var want []chunkstore.ChunkMeta
			for d := 0; d < g.Dims(); d++ {
				chunks, err := st.ChunksOverlapping(d, box.Min[d], box.Max[d])
				if err != nil {
					t.Fatal(err)
				}
				if len(chunks) == 0 {
					empty++
				}
				want = append(want, chunks...)
			}
			got, err := m.Chunks(id)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: cell %d: mapping gives %d chunks, its box overlaps %d", name, id, len(got), len(want))
			}
		}
		return empty
	}
	check("flat", g, build(all))
	for s, rows := range parts {
		check(fmt.Sprintf("part %d of 3", s), g, build(rows))
	}
	wide := vec.NewBox(bounds.Min, bounds.Max)
	wide.Max[0] += 2 * (bounds.Max[0] - bounds.Min[0]) // segments 2 and 3 lie past the data
	gw, err := New(wide, 4)
	if err != nil {
		t.Fatal(err)
	}
	if check("wide domain", gw, build(all)) == 0 {
		t.Error("no cell of the wide domain missed every chunk on a dimension")
	}
}
