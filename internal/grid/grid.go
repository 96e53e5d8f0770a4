// Package grid implements UEI's in-memory spatial index (§3.1, Figure 1):
// the data space is divided into equal-size d-dimensional subspaces
// ("cells"); each cell g_i is represented by a symbolic index point p_i at
// its center; and a mapping method m records, for each cell, the chunks of
// each dimension needed to reconstruct it from the chunk store.
package grid

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/vec"
)

// CellID identifies a grid cell in [0, NumCells()).
type CellID int

// Grid partitions an axis-aligned domain into an equal-width lattice.
type Grid struct {
	bounds   vec.Box
	segments []int     // segments per dimension
	widths   []float64 // cell width per dimension
	cells    int
}

// New creates a grid with the same number of segments in every dimension
// ("equilateral d-dimensional subspaces", Algorithm 2 line 7). With 5
// dimensions and 5 segments this yields the paper's 3125 symbolic index
// points.
func New(bounds vec.Box, segmentsPerDim int) (*Grid, error) {
	segs := make([]int, bounds.Dims())
	for i := range segs {
		segs[i] = segmentsPerDim
	}
	return NewWithSegments(bounds, segs)
}

// NewWithSegments creates a grid with per-dimension segment counts.
func NewWithSegments(bounds vec.Box, segments []int) (*Grid, error) {
	dims := bounds.Dims()
	if dims == 0 {
		return nil, fmt.Errorf("grid: zero-dimensional bounds")
	}
	if len(segments) != dims {
		return nil, fmt.Errorf("grid: %d segment counts for %d dimensions", len(segments), dims)
	}
	cells := 1
	widths := make([]float64, dims)
	for i, s := range segments {
		if s <= 0 {
			return nil, fmt.Errorf("grid: dimension %d has %d segments; need at least 1", i, s)
		}
		if cells > math.MaxInt32/s {
			return nil, fmt.Errorf("grid: cell count overflow (%d segments on dimension %d)", s, i)
		}
		cells *= s
		span := bounds.Max[i] - bounds.Min[i]
		if span <= 0 {
			// Degenerate dimension: a single zero-width slab still works;
			// every point maps to segment 0.
			if s != 1 {
				return nil, fmt.Errorf("grid: dimension %d is degenerate but has %d segments", i, s)
			}
			widths[i] = 1
			continue
		}
		widths[i] = span / float64(s)
	}
	return &Grid{
		bounds:   vec.NewBox(bounds.Min, bounds.Max),
		segments: segments,
		widths:   widths,
		cells:    cells,
	}, nil
}

// NewForPointBudget creates an equilateral grid whose total cell count is
// as close as possible to (without exceeding) approxPoints, the Table 1
// "Number of Symbolic Index Points" knob.
func NewForPointBudget(bounds vec.Box, approxPoints int) (*Grid, error) {
	if approxPoints < 1 {
		return nil, fmt.Errorf("grid: point budget %d must be at least 1", approxPoints)
	}
	d := float64(bounds.Dims())
	segs := int(math.Floor(math.Pow(float64(approxPoints), 1/d) + 1e-9))
	if segs < 1 {
		segs = 1
	}
	return New(bounds, segs)
}

// Dims returns the dimensionality.
func (g *Grid) Dims() int { return g.bounds.Dims() }

// NumCells returns the number of cells, which equals the number of symbolic
// index points |P|.
func (g *Grid) NumCells() int { return g.cells }

// Segments returns the per-dimension segment counts (read-only).
func (g *Grid) Segments() []int { return g.segments }

// Bounds returns the grid domain.
func (g *Grid) Bounds() vec.Box { return g.bounds }

// Coords decomposes a cell id into per-dimension segment indexes.
func (g *Grid) Coords(id CellID) ([]int, error) {
	if id < 0 || int(id) >= g.cells {
		return nil, fmt.Errorf("grid: cell %d out of range [0,%d)", id, g.cells)
	}
	coords := make([]int, g.Dims())
	v := int(id)
	for i := g.Dims() - 1; i >= 0; i-- {
		coords[i] = v % g.segments[i]
		v /= g.segments[i]
	}
	return coords, nil
}

// ID composes per-dimension segment indexes into a cell id (the inverse of
// Coords).
func (g *Grid) ID(coords []int) (CellID, error) {
	if len(coords) != g.Dims() {
		return 0, fmt.Errorf("grid: %d coords for %d dimensions", len(coords), g.Dims())
	}
	id := 0
	for i, c := range coords {
		if c < 0 || c >= g.segments[i] {
			return 0, fmt.Errorf("grid: coord %d = %d out of range [0,%d)", i, c, g.segments[i])
		}
		id = id*g.segments[i] + c
	}
	return CellID(id), nil
}

// CellBox returns the axis-aligned box of a cell. Boxes of adjacent cells
// share boundary faces; membership assignment (CellOf) resolves boundary
// points to the lower-indexed cell except at the domain maximum.
func (g *Grid) CellBox(id CellID) (vec.Box, error) {
	coords, err := g.Coords(id)
	if err != nil {
		return vec.Box{}, err
	}
	min := make(vec.Point, g.Dims())
	max := make(vec.Point, g.Dims())
	for i, c := range coords {
		min[i] = g.bounds.Min[i] + float64(c)*g.widths[i]
		if c == g.segments[i]-1 {
			// Snap the last cell to the exact domain edge so accumulated
			// floating-point drift cannot exclude boundary tuples.
			max[i] = g.bounds.Max[i]
		} else {
			max[i] = g.bounds.Min[i] + float64(c+1)*g.widths[i]
		}
	}
	return vec.NewBox(min, max), nil
}

// Center returns the symbolic index point of a cell: "the coordinates of
// the 'virtual' center point of g_i" (Algorithm 2 line 9).
func (g *Grid) Center(id CellID) (vec.Point, error) {
	box, err := g.CellBox(id)
	if err != nil {
		return nil, err
	}
	return box.Center(), nil
}

// CellOf returns the cell containing p. Points outside the domain are an
// error — a NaN coordinate is inside no interval, hence the negated form of
// the test; points on an interior boundary map to the higher segment
// (standard half-open intervals), and the domain maximum maps to the last
// segment.
func (g *Grid) CellOf(p vec.Point) (CellID, error) {
	if len(p) != g.Dims() {
		return 0, fmt.Errorf("grid: point has %d dims, grid has %d", len(p), g.Dims())
	}
	coords := make([]int, g.Dims())
	for i, v := range p {
		if !(v >= g.bounds.Min[i] && v <= g.bounds.Max[i]) {
			return 0, fmt.Errorf("grid: coordinate %d = %g outside domain [%g,%g]", i, v, g.bounds.Min[i], g.bounds.Max[i])
		}
		c := int((v - g.bounds.Min[i]) / g.widths[i])
		if c >= g.segments[i] {
			c = g.segments[i] - 1
		}
		coords[i] = c
	}
	return g.ID(coords)
}

// SegmentOf returns the segment index of value v on dimension dim, using
// the same boundary rules as CellOf.
func (g *Grid) SegmentOf(dim int, v float64) (int, error) {
	if dim < 0 || dim >= g.Dims() {
		return 0, fmt.Errorf("grid: dimension %d out of range [0,%d)", dim, g.Dims())
	}
	if !(v >= g.bounds.Min[dim] && v <= g.bounds.Max[dim]) {
		return 0, fmt.Errorf("grid: value %g outside domain [%g,%g] on dimension %d", v, g.bounds.Min[dim], g.bounds.Max[dim], dim)
	}
	c := int((v - g.bounds.Min[dim]) / g.widths[dim])
	if c >= g.segments[dim] {
		c = g.segments[dim] - 1
	}
	return c, nil
}

// SegmentInterval returns the value interval [lo, hi] of a segment on a
// dimension (the last segment snaps to the domain edge, as CellBox does).
func (g *Grid) SegmentInterval(dim, seg int) (lo, hi float64, err error) {
	if dim < 0 || dim >= g.Dims() {
		return 0, 0, fmt.Errorf("grid: dimension %d out of range [0,%d)", dim, g.Dims())
	}
	if seg < 0 || seg >= g.segments[dim] {
		return 0, 0, fmt.Errorf("grid: segment %d out of range [0,%d) on dimension %d", seg, g.segments[dim], dim)
	}
	lo = g.bounds.Min[dim] + float64(seg)*g.widths[dim]
	if seg == g.segments[dim]-1 {
		hi = g.bounds.Max[dim]
	} else {
		hi = g.bounds.Min[dim] + float64(seg+1)*g.widths[dim]
	}
	return lo, hi, nil
}

// Centers materializes every symbolic index point, in cell-id order. This
// is the index set P of §3.1 (component 1).
func (g *Grid) Centers() []vec.Point {
	out := make([]vec.Point, g.cells)
	for id := 0; id < g.cells; id++ {
		c, err := g.Center(CellID(id))
		if err != nil {
			// Unreachable: ids are generated in range.
			panic(err)
		}
		out[id] = c
	}
	return out
}

// Mapping is the mapping method m : p -> C of §3.1 (component 2): for each
// cell it records the contiguous run of chunk sequence numbers per
// dimension whose value ranges overlap the cell. Runs are resolved against
// the store's manifest on demand, keeping the in-memory mapping compact
// (two ints per dimension per cell).
type Mapping struct {
	grid  *Grid
	store *chunkstore.Store
	// runs[cell][dim] = {first, last} chunk Seq, inclusive; first > last
	// encodes "no chunks" (possible when a cell covers empty value space).
	runs [][][2]int
}

// BuildMapping computes the cell-to-chunk mapping from the store manifest.
func BuildMapping(g *Grid, st *chunkstore.Store) (*Mapping, error) {
	if g.Dims() != st.Dims() {
		return nil, fmt.Errorf("grid: grid has %d dims, store has %d", g.Dims(), st.Dims())
	}
	runs := make([][][2]int, g.NumCells())
	for id := 0; id < g.NumCells(); id++ {
		box, err := g.CellBox(CellID(id))
		if err != nil {
			return nil, err
		}
		cellRuns := make([][2]int, g.Dims())
		for d := 0; d < g.Dims(); d++ {
			chunks, err := st.ChunksOverlapping(d, box.Min[d], box.Max[d])
			if err != nil {
				return nil, err
			}
			if len(chunks) == 0 {
				cellRuns[d] = [2]int{1, 0}
				continue
			}
			cellRuns[d] = [2]int{chunks[0].Seq, chunks[len(chunks)-1].Seq}
		}
		runs[id] = cellRuns
	}
	return &Mapping{grid: g, store: st, runs: runs}, nil
}

// Chunks returns the chunk metadata needed to reconstruct the cell, all
// dimensions concatenated.
func (m *Mapping) Chunks(id CellID) ([]chunkstore.ChunkMeta, error) {
	if id < 0 || int(id) >= len(m.runs) {
		return nil, fmt.Errorf("grid: cell %d out of range [0,%d)", id, len(m.runs))
	}
	var out []chunkstore.ChunkMeta
	manifest := m.store.Manifest()
	for d, run := range m.runs[id] {
		if run[0] > run[1] {
			continue
		}
		out = append(out, manifest.Chunks[d][run[0]:run[1]+1]...)
	}
	return out, nil
}
