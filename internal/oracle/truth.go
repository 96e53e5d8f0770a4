package oracle

import (
	"fmt"
	"sync"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// groundTruth is the oracle set of §4.1: the ids of the dataset rows the
// target accepts. Labels and membership questions about one row are
// answered from the row by the target alone, so nothing is scanned until a
// question needs the whole set — its size or its lowest id — and then the
// set is built once, in ascending id order. The dataset itself is loaded
// on first need, so an oracle over a dataset that is expensive to produce
// costs nothing until then.
type groundTruth struct {
	target Target
	load   func() (*dataset.Dataset, error)

	dsOnce sync.Once
	ds     *dataset.Dataset
	err    error

	setOnce sync.Once
	ids     []dataset.RowID
}

// over returns the ground truth of t over ds, or an error when their
// dimensionalities differ.
func over(ds *dataset.Dataset, t Target) (*groundTruth, error) {
	g := &groundTruth{target: t, load: func() (*dataset.Dataset, error) { return ds, nil }}
	if _, err := g.dataset(); err != nil {
		return nil, err
	}
	return g, nil
}

// dataset returns the dataset the set is drawn from, loading it on the
// first call.
func (g *groundTruth) dataset() (*dataset.Dataset, error) {
	g.dsOnce.Do(func() {
		ds, err := g.load()
		if err == nil && ds.Dims() != g.target.Dims() {
			err = fmt.Errorf("oracle: dataset has %d dims, target has %d", ds.Dims(), g.target.Dims())
		}
		g.ds, g.err = ds, err
	})
	if g.err != nil {
		return nil, g.err
	}
	return g.ds, nil
}

// set returns the relevant ids in ascending order and the dataset they
// index, scanning it on the first call.
func (g *groundTruth) set() ([]dataset.RowID, *dataset.Dataset, error) {
	ds, err := g.dataset()
	if err != nil {
		return nil, nil, err
	}
	g.setOnce.Do(func() {
		ds.Scan(func(id dataset.RowID, row []float64) bool {
			if g.target.Contains(row) {
				g.ids = append(g.ids, id)
			}
			return true
		})
	})
	return g.ids, ds, nil
}

// relevant reports whether row id is in the set, from the row alone. Ids
// past the dataset, and every id when the dataset cannot be loaded, are
// not.
func (g *groundTruth) relevant(id dataset.RowID) bool {
	ds, err := g.dataset()
	return err == nil && int(id) < ds.Len() && g.target.Contains(ds.Row(id))
}

// count returns the size of the set; 0 when the dataset cannot be loaded.
func (g *groundTruth) count() int {
	ids, _, _ := g.set()
	return len(ids)
}

// lowest returns the lowest relevant id whose row within accepts (any
// relevant row when within is nil) and an owned copy of that row. ok is
// false when there is none; err is the dataset's load error.
func (g *groundTruth) lowest(within func(vec.Point) bool) (dataset.RowID, []float64, bool, error) {
	ids, ds, err := g.set()
	if err != nil {
		return 0, nil, false, err
	}
	for _, id := range ids {
		if row := ds.Row(id); within == nil || within(row) {
			return id, vec.Clone(row), true, nil
		}
	}
	return 0, nil, false, nil
}
