package oracle

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// MultiRegion is a union of target interest regions. The paper's
// evaluation fixes "Number of relevant regions: 1" (Table 1), but the IDE
// systems UEI serves (REQUEST, AIDE) support disjunctive interests —
// several disjoint relevant regions explored in one session — so the
// oracle substrate models them too.
type MultiRegion struct {
	Regions []Region
}

// NewMultiRegion validates and bundles the component regions. At least one
// region is required and all must share dimensionality.
func NewMultiRegion(regions ...Region) (MultiRegion, error) {
	if len(regions) == 0 {
		return MultiRegion{}, fmt.Errorf("oracle: multi-region needs at least one region")
	}
	dims := regions[0].Dims()
	for i, r := range regions {
		if r.Dims() != dims {
			return MultiRegion{}, fmt.Errorf("oracle: region %d has %d dims, region 0 has %d", i, r.Dims(), dims)
		}
	}
	out := MultiRegion{Regions: make([]Region, len(regions))}
	copy(out.Regions, regions)
	return out, nil
}

// Dims returns the dimensionality.
func (m MultiRegion) Dims() int { return m.Regions[0].Dims() }

// Contains reports whether x is relevant — inside any component region.
func (m MultiRegion) Contains(x vec.Point) bool {
	for _, r := range m.Regions {
		if r.Contains(x) {
			return true
		}
	}
	return false
}

// RelativeDistance generalizes Eq. (4) to a union: the minimum relative
// distance over the component regions, so values <= 1 are inside.
func (m MultiRegion) RelativeDistance(x vec.Point) float64 {
	best := math.Inf(1)
	for _, r := range m.Regions {
		if d := r.RelativeDistance(x); d < best {
			best = d
		}
	}
	return best
}

// Cardinality returns the number of tuples inside the union (tuples in
// overlapping regions count once).
func (m MultiRegion) Cardinality(ds *dataset.Dataset) int {
	n := 0
	ds.Scan(func(_ dataset.RowID, row []float64) bool {
		if m.Contains(row) {
			n++
		}
		return true
	})
	return n
}

// Selectivity returns the fraction of tuples inside the union.
func (m MultiRegion) Selectivity(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	return float64(m.Cardinality(ds)) / float64(ds.Len())
}

// NewMulti builds an oracle whose ground truth is the union of several
// regions — the multi-region exploration task.
func NewMulti(ds *dataset.Dataset, mr MultiRegion) (*Oracle, error) {
	truth, err := over(ds, mr)
	if err != nil {
		return nil, err
	}
	return &Oracle{region: mr.Regions[0], targets: mr, truth: truth}, nil
}

// Targets returns the oracle's full target union. Single-region oracles
// report a one-element union.
func (o *Oracle) Targets() MultiRegion {
	if len(o.targets.Regions) == 0 {
		return MultiRegion{Regions: []Region{o.region}}
	}
	return o.targets
}

// FindMultiRegion synthesizes k disjoint target regions whose combined
// selectivity approximates fraction. Each component gets an equal share of
// the cardinality budget; components are re-drawn (up to maxSeeds seeds
// each) until they do not intersect previously chosen ones.
func FindMultiRegion(ds *dataset.Dataset, k int, fraction, tol float64, seed int64, maxSeeds int) (MultiRegion, error) {
	if k < 1 {
		return MultiRegion{}, fmt.Errorf("oracle: region count %d must be positive", k)
	}
	if fraction <= 0 || fraction >= 1 {
		return MultiRegion{}, fmt.Errorf("oracle: fraction %g outside (0,1)", fraction)
	}
	share := fraction / float64(k)
	var chosen []Region
	for i := 0; i < k; i++ {
		var placed bool
		for attempt := 0; attempt < 8 && !placed; attempt++ {
			r, err := FindRegion(ds, share, tol, seed+int64(i*997+attempt*31), maxSeeds)
			if err != nil {
				return MultiRegion{}, fmt.Errorf("oracle: region %d: %w", i, err)
			}
			if intersectsAny(r, chosen) {
				continue
			}
			chosen = append(chosen, r)
			placed = true
		}
		if !placed {
			return MultiRegion{}, fmt.Errorf("oracle: could not place %d disjoint regions of share %g", k, share)
		}
	}
	return NewMultiRegion(chosen...)
}

func intersectsAny(r Region, others []Region) bool {
	box := r.Box()
	for _, o := range others {
		if box.Intersects(o.Box()) {
			return true
		}
	}
	return false
}
