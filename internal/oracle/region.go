// Package oracle implements the paper's user-simulation methodology (§4.1):
// a target interest region defined by a range query, an exact ground-truth
// ("oracle") set of relevant tuples, the Eq. (4) relative-distance measure,
// and utilities to synthesize regions of a prescribed cardinality
// (0.1% / 0.4% / 0.8% of the dataset for small / medium / large).
package oracle

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// Region is a target interest region: a center point and one half-width per
// dimension. A tuple is relevant iff it lies in the axis-aligned box
// [center-width, center+width] (Contains), which is where its Eq. (4)
// relative distance to the center is at most 1.
type Region struct {
	Center vec.Point
	// Widths holds the per-dimension half-widths w_i of Eq. (4). All must be
	// positive.
	Widths vec.Point
}

// NewRegion validates and builds a region.
func NewRegion(center, widths vec.Point) (Region, error) {
	if len(center) != len(widths) {
		return Region{}, fmt.Errorf("oracle: center has %d dims, widths %d", len(center), len(widths))
	}
	if len(center) == 0 {
		return Region{}, fmt.Errorf("oracle: empty region")
	}
	for i, w := range widths {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Region{}, fmt.Errorf("oracle: width %d = %g must be positive and finite", i, w)
		}
	}
	return Region{Center: vec.Clone(center), Widths: vec.Clone(widths)}, nil
}

// Dims returns the dimensionality of the region.
func (r Region) Dims() int { return len(r.Center) }

// RelativeDistance implements Eq. (4) of the paper:
//
//	d = max_i |x_i - c_i| / w_i
//
// Values <= 1 are inside the region; the value grows linearly with distance
// beyond the boundary.
func (r Region) RelativeDistance(x vec.Point) float64 {
	if len(x) != len(r.Center) {
		panic(fmt.Sprintf("oracle: point has %d dims, region has %d", len(x), len(r.Center)))
	}
	var d float64
	for i := range x {
		if v := math.Abs(x[i]-r.Center[i]) / r.Widths[i]; v > d {
			d = v
		}
	}
	return d
}

// Contains reports whether x is relevant: the range query's box test,
// c_i - w_i <= x_i <= c_i + w_i on every dimension, with the bounds
// rounded exactly as Box rounds them. It is every oracle's one relevance
// predicate. RelativeDistance(x) <= 1 is the same test in exact
// arithmetic but can disagree at a face after rounding (c = 0.1, w = 0.2,
// x = c + w is inside the box at relative distance 1.0000000000000002).
// Like Box().Contains, it counts a NaN coordinate as inside.
func (r Region) Contains(x vec.Point) bool {
	if len(x) != len(r.Center) {
		panic(fmt.Sprintf("oracle: point has %d dims, region has %d", len(x), len(r.Center)))
	}
	for i, v := range x {
		if v < r.Center[i]-r.Widths[i] || v > r.Center[i]+r.Widths[i] {
			return false
		}
	}
	return true
}

// Box returns the region as an axis-aligned box.
func (r Region) Box() vec.Box {
	min := make(vec.Point, len(r.Center))
	max := make(vec.Point, len(r.Center))
	for i := range r.Center {
		min[i] = r.Center[i] - r.Widths[i]
		max[i] = r.Center[i] + r.Widths[i]
	}
	return vec.NewBox(min, max)
}

// Cardinality returns the number of dataset tuples inside the region.
func (r Region) Cardinality(ds *dataset.Dataset) int {
	return ds.CountIn(r.Box())
}

// Selectivity returns the fraction of dataset tuples inside the region.
func (r Region) Selectivity(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	return float64(r.Cardinality(ds)) / float64(ds.Len())
}
