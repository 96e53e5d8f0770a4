package dataset

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/vec"
)

// RowID identifies a tuple within a Dataset. IDs are dense: 0..Len()-1.
type RowID uint32

// Dataset is an immutable-after-construction, row-major numeric table held
// in memory. It is the ground-truth substrate from which the on-disk stores
// (chunk store, DBMS heap file) are built and against which oracles and
// accuracy metrics are evaluated.
type Dataset struct {
	schema Schema
	vals   []float64 // row-major, len = n * dims
	n      int
}

// New creates an empty dataset with capacity hint n.
func New(schema Schema, capacityHint int) *Dataset {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &Dataset{
		schema: schema,
		vals:   make([]float64, 0, capacityHint*schema.Dims()),
	}
}

// Schema returns the dataset schema.
func (d *Dataset) Schema() Schema { return d.schema }

// Dims returns the number of attributes per tuple.
func (d *Dataset) Dims() int { return d.schema.Dims() }

// Len returns the number of tuples.
func (d *Dataset) Len() int { return d.n }

// Append adds one tuple. The row is copied.
func (d *Dataset) Append(row []float64) (RowID, error) {
	if len(row) != d.Dims() {
		return 0, fmt.Errorf("dataset: row has %d values, schema has %d columns", len(row), d.Dims())
	}
	d.vals = append(d.vals, row...)
	id := RowID(d.n)
	d.n++
	return id, nil
}

// Row returns a read-only view of tuple id. The returned slice aliases the
// dataset's storage and must not be modified or retained across appends.
func (d *Dataset) Row(id RowID) []float64 {
	i := int(id)
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("dataset: row %d out of range [0,%d)", i, d.n))
	}
	k := d.Dims()
	return d.vals[i*k : (i+1)*k : (i+1)*k]
}

// CopyRow returns an owned copy of tuple id.
func (d *Dataset) CopyRow(id RowID) []float64 {
	return vec.Clone(d.Row(id))
}

// At returns the value of attribute dim for tuple id.
func (d *Dataset) At(id RowID, dim int) float64 {
	if dim < 0 || dim >= d.Dims() {
		panic(fmt.Sprintf("dataset: dim %d out of range [0,%d)", dim, d.Dims()))
	}
	return d.Row(id)[dim]
}

// Bounds returns the tight axis-aligned bounding box of all tuples. It
// returns an error when the dataset is empty, since an empty set has no
// bounds.
func (d *Dataset) Bounds() (vec.Box, error) {
	box, _, err := BoundsOf(d)
	return box, err
}

// Source is a re-readable row source: every Rows call starts one pass
// over the same rows in the same order, so a source larger than memory (a
// CSVFile) can feed a build that reads it more than once. *Dataset and
// *CSVFile implement it.
type Source interface {
	Schema() Schema
	Rows() (Rows, error)
}

// Rows is one pass over a Source. Next returns the next row, which the
// source may reuse or alias (a caller copies what it keeps), or ok=false
// after the last; Skip passes over the next row as Next would, without
// decoding its values, and fails only where Next would fail without
// reading them (a CSV row of the wrong width does, an unparsable field
// does not); Close ends the pass.
type Rows interface {
	Next() (row []float64, ok bool, err error)
	Skip() (ok bool, err error)
	Close() error
}

// Rows starts a pass over the tuples in id order, aliasing their storage.
func (d *Dataset) Rows() (Rows, error) { return &datasetRows{d: d}, nil }

type datasetRows struct {
	d    *Dataset
	next int
}

func (r *datasetRows) Next() ([]float64, bool, error) {
	if r.next == r.d.n {
		return nil, false, nil
	}
	r.next++
	return r.d.Row(RowID(r.next - 1)), true, nil
}

func (r *datasetRows) Skip() (bool, error) {
	_, ok, err := r.Next()
	return ok, err
}

func (r *datasetRows) Close() error { return nil }

// BoundsOf reads one pass of src and returns the tight bounding box of its
// rows and their count. A source without rows, or with a row of the wrong
// width or a non-finite value, fails: it has no bounds.
func BoundsOf(src Source) (vec.Box, int, error) {
	rows, err := src.Rows()
	if err != nil {
		return vec.Box{}, 0, err
	}
	defer rows.Close()
	cols := src.Schema().Columns
	lo, hi := make(vec.Point, len(cols)), make(vec.Point, len(cols))
	for n := 0; ; n++ {
		row, ok, err := rows.Next()
		if err != nil || !ok {
			if err == nil && n == 0 {
				err = fmt.Errorf("dataset: bounds of a source without rows")
			}
			return vec.NewBox(lo, hi), n, err
		}
		if len(row) != len(cols) {
			return vec.Box{}, 0, fmt.Errorf("dataset: row %d has %d values, schema has %d columns", n, len(row), len(cols))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return vec.Box{}, 0, fmt.Errorf("dataset: row %d column %q: non-finite value", n, cols[j].Name)
			}
			if n == 0 || v < lo[j] {
				lo[j] = v
			}
			if n == 0 || v > hi[j] {
				hi[j] = v
			}
		}
	}
}

// Scan calls fn for every tuple in id order, stopping early if fn returns
// false. The row slice passed to fn aliases internal storage.
func (d *Dataset) Scan(fn func(id RowID, row []float64) bool) {
	k := d.Dims()
	for i := 0; i < d.n; i++ {
		if !fn(RowID(i), d.vals[i*k:(i+1)*k]) {
			return
		}
	}
}

// Select returns the IDs of all tuples inside the box.
func (d *Dataset) Select(box vec.Box) []RowID {
	var out []RowID
	d.Scan(func(id RowID, row []float64) bool {
		if box.Contains(row) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// CountIn returns the number of tuples inside the box.
func (d *Dataset) CountIn(box vec.Box) int {
	n := 0
	d.Scan(func(_ RowID, row []float64) bool {
		if box.Contains(row) {
			n++
		}
		return true
	})
	return n
}

// SizeBytes returns the raw payload size of the dataset (8 bytes per value),
// the quantity used to express memory budgets as a fraction of data size.
func (d *Dataset) SizeBytes() int64 {
	return int64(d.n) * int64(d.Dims()) * 8
}
