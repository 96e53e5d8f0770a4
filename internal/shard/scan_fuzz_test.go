package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/vec"
)

// scanInput reads a fuzz input one byte at a time, as zeros once it runs
// out, so every input decodes to some store.
type scanInput struct{ b []byte }

func (in *scanInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return int(v)
}

// scanCase is one decoded fuzz input: a grid, a mask and the rows of each
// part, in local order, with the global ids they carry.
type scanCase struct {
	g      *grid.Grid
	marked [][]bool
	rows   [][][]float64
	ids    [][]uint32 // nil for an identity part
	chunk  int
}

// decodeScanCase turns bytes into a small store. Each dimension draws its
// values from 4, 16 or 251 levels, so values repeat (counts above one) or
// mostly post one row each; a byte may narrow the grid's domain inside the
// values, or turn a value into NaN. Parts deal global ids round-robin.
func decodeScanCase(data []byte) scanCase {
	in := &scanInput{data}
	dims := 1 + in.next()%3
	segments := 1 + in.next()%4
	nan := in.next()%8 == 0
	levels := make([]int, dims)
	lo, hi := make([]float64, dims), make([]float64, dims)
	for d := range levels {
		levels[d] = []int{4, 16, 251}[in.next()%3]
		hi[d] = float64(levels[d] - 1)
		if in.next()%4 == 0 {
			// A domain narrower than the values on one or both sides.
			lo[d] = float64(in.next() % (levels[d]/2 + 1))
			hi[d] -= float64(in.next() % (levels[d]/2 + 1))
			if hi[d] <= lo[d] {
				hi[d] = lo[d] + 1
			}
		}
	}
	g, err := grid.New(vec.NewBox(lo, hi), segments)
	if err != nil {
		panic(err) // every decoded domain has positive width
	}
	c := scanCase{g: g, marked: make([][]bool, dims), chunk: 64 * (1 + in.next()%4)}
	full := in.next()%2 == 0
	for d := range c.marked {
		c.marked[d] = make([]bool, segments)
		for s := range c.marked[d] {
			c.marked[d][s] = full || in.next()%2 == 0
		}
	}
	parts := 1 + in.next()%4
	c.rows = make([][][]float64, parts)
	for p := range c.rows {
		n := 1 + in.next()%60
		for i := 0; i < n; i++ {
			row := make([]float64, dims)
			for d := range row {
				b := in.next()
				row[d] = float64(b % levels[d])
				if nan && b == 255 {
					row[d] = math.NaN()
				}
			}
			c.rows[p] = append(c.rows[p], row)
		}
	}
	if parts > 1 {
		c.ids = make([][]uint32, parts)
		for p := range c.ids {
			for i := range c.rows[p] {
				c.ids[p] = append(c.ids[p], uint32(i*parts+p))
			}
		}
	}
	return c
}

// want is what a scan of part p must answer, by brute force: the rows
// whose every value lies in a marked segment, in id order, or the error the
// scan meets first. The scan reads dimensions in order, a dimension's
// chunks overlapping a marked segment in sequence order and a chunk's
// values ascending, and fails on the first value outside the domain.
func (c scanCase) want(st *chunkstore.Store, p int) (ids []uint32, rows [][]float64, errText string) {
	for d := 0; d < c.g.Dims(); d++ {
		lo, hi := c.g.Bounds().Min[d], c.g.Bounds().Max[d]
		for _, ch := range st.Manifest().Chunks[d] {
			if !c.chunkRead(d, ch) || (ch.MinValue >= lo && ch.MaxValue <= hi) {
				continue
			}
			bad := ch.MinValue
			if bad >= lo {
				bad = math.Inf(1)
				for _, row := range c.rows[p] {
					if v := row[d]; v > hi && v >= ch.MinValue && v <= ch.MaxValue {
						bad = math.Min(bad, v)
					}
				}
			}
			_, err := c.g.SegmentOf(d, bad)
			return nil, nil, err.Error()
		}
	}
	for i, row := range c.rows[p] {
		keep := true
		for d, v := range row {
			seg, err := c.g.SegmentOf(d, v)
			keep = keep && err == nil && c.marked[d][seg]
		}
		if keep {
			id := uint32(i)
			if c.ids != nil {
				id = c.ids[p][i]
			}
			ids = append(ids, id)
			rows = append(rows, row)
		}
	}
	return ids, rows, ""
}

// chunkRead reports whether the scan reads a chunk of dimension d: whether
// its value range meets a marked segment's interval.
func (c scanCase) chunkRead(d int, ch chunkstore.ChunkMeta) bool {
	for s, on := range c.marked[d] {
		lo, hi, _ := c.g.SegmentInterval(d, s)
		if on && ch.MaxValue >= lo && ch.MinValue <= hi {
			return true
		}
	}
	return false
}

// checkScan holds one scan's answer to the brute-force reference: the same
// ids, bit-equal columns and zero padding, or the same error text.
func checkScan(r RetrievedPart, err error, ids []uint32, rows [][]float64, errText string) error {
	if errText != "" || err != nil {
		if err == nil || errText == "" || !strings.Contains(err.Error(), errText) {
			return fmt.Errorf("err = %v, want %q", err, errText)
		}
		return nil
	}
	blk := r.Blk
	if err := blk.Check(); err != nil {
		return err
	}
	if blk.N != len(ids) || blk.Stride != kernel.StrideFor(blk.N) || !slices.Equal(r.IDs, ids) {
		return fmt.Errorf("ids %v (block of %d, stride %d), want %v", r.IDs, blk.N, blk.Stride, ids)
	}
	for d := 0; d < blk.Dims; d++ {
		for i, v := range blk.Col(d) {
			if math.Float64bits(v) != math.Float64bits(rows[i][d]) {
				return fmt.Errorf("row %d dimension %d = %g, want %g", ids[i], d, v, rows[i][d])
			}
		}
		for _, v := range blk.Data[d*blk.Stride+blk.N : (d+1)*blk.Stride] {
			if math.Float64bits(v) != 0 {
				return fmt.Errorf("dimension %d: padding word %g", d, v)
			}
		}
	}
	return nil
}

// FuzzScanMarked holds ScanMarked to a brute-force reference on small
// generated stores — repeated values, values outside the grid's domain,
// NaN, full and partial masks — whose parts, of rising and falling size,
// are scanned one after another through one reused scratch, and each once
// more without one.
func FuzzScanMarked(f *testing.F) {
	f.Add([]byte{1, 3, 1, 2, 1, 0, 0, 1, 3, 20, 5, 9, 200, 17, 3})
	f.Add([]byte{2, 2, 1, 0, 2, 1, 1, 0, 1, 1, 1, 0, 1, 0, 2, 5, 50, 10})
	f.Add([]byte{0, 1, 1, 2, 0, 0, 3, 1, 0, 8, 2, 3, 4, 5, 250, 251, 252})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeScanCase(data)
		ctx := context.Background()
		sc := new(ScanScratch)
		for p := range c.rows {
			rows := c.rows[p]
			src := dataset.New(dataset.MustSchema(c.columns()...), len(rows))
			for _, row := range rows {
				src.Append(row)
			}
			st, err := chunkstore.Build(t.TempDir(), src, chunkstore.BuildOptions{TargetChunkBytes: c.chunk})
			if err != nil {
				if slices.ContainsFunc(rows, func(r []float64) bool { return slices.ContainsFunc(r, math.IsNaN) }) &&
					strings.Contains(err.Error(), "non-finite value") {
					return // a store never holds NaN: the builder refuses it
				}
				t.Fatal(err)
			}
			// Each part's store holds its data files open until closed: a
			// long fuzz run would otherwise run out of descriptors.
			defer st.Close()
			part := &Part{Store: st}
			if c.ids != nil {
				part.IDMap = c.ids[p]
			}
			ids, want, errText := c.want(st, p)
			r, _, err := ScanMarked(ctx, c.g, part, c.marked, sc)
			if err := checkScan(r, err, ids, want, errText); err != nil {
				t.Fatalf("part %d, scratch: %v", p, err)
			}
			r, _, err = ScanMarked(ctx, c.g, part, c.marked, nil)
			if err := checkScan(r, err, ids, want, errText); err != nil {
				t.Fatalf("part %d, no scratch: %v", p, err)
			}
		}
	})
}

// columns names the case's dimensions.
func (c scanCase) columns() []string {
	cols := make([]string, c.g.Dims())
	for d := range cols {
		cols[d] = fmt.Sprintf("c%d", d)
	}
	return cols
}
