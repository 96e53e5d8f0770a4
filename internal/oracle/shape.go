package oracle

import (
	"fmt"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// Target is any membership geometry an oracle can answer for. Region and
// MultiRegion satisfy it; Ring adds a non-convex shape the paper's
// axis-aligned boxes cannot express. Implementations must be pure
// functions of the point (no internal state), so membership answers are
// deterministic.
type Target interface {
	Dims() int
	Contains(x vec.Point) bool
}

// Ring is a non-convex target: the points inside the Outer box but
// outside the Inner hole — an axis-aligned annulus. Explorers whose
// interest excludes a core ("bright but not saturated") produce exactly
// this shape, and it breaks the single-box convexity assumption that
// makes rectangular targets easy for range-based learners.
type Ring struct {
	Outer Region
	Inner Region
}

// NewRing validates and builds a ring. The inner hole must nest strictly
// inside the outer box (same center not required, but every inner face
// must lie inside the outer region), and both must share dimensionality.
func NewRing(outer, inner Region) (Ring, error) {
	if outer.Dims() != inner.Dims() {
		return Ring{}, fmt.Errorf("oracle: ring outer has %d dims, inner has %d", outer.Dims(), inner.Dims())
	}
	for i := range inner.Center {
		lo := inner.Center[i] - inner.Widths[i]
		hi := inner.Center[i] + inner.Widths[i]
		if lo < outer.Center[i]-outer.Widths[i] || hi > outer.Center[i]+outer.Widths[i] {
			return Ring{}, fmt.Errorf("oracle: ring inner region escapes the outer box on dim %d", i)
		}
		if inner.Widths[i] >= outer.Widths[i] {
			return Ring{}, fmt.Errorf("oracle: ring inner half-width %g >= outer %g on dim %d (empty ring)", inner.Widths[i], outer.Widths[i], i)
		}
	}
	return Ring{Outer: outer, Inner: inner}, nil
}

// ConcentricRing builds a ring whose hole shares the outer region's
// center, with inner half-widths = innerFrac * outer half-widths.
func ConcentricRing(outer Region, innerFrac float64) (Ring, error) {
	if innerFrac <= 0 || innerFrac >= 1 {
		return Ring{}, fmt.Errorf("oracle: ring inner fraction %g outside (0,1)", innerFrac)
	}
	w := make(vec.Point, outer.Dims())
	for i := range w {
		w[i] = outer.Widths[i] * innerFrac
	}
	inner, err := NewRegion(outer.Center, w)
	if err != nil {
		return Ring{}, err
	}
	return NewRing(outer, inner)
}

// Dims implements Target.
func (r Ring) Dims() int { return r.Outer.Dims() }

// Contains implements Target: inside the outer box, outside the hole.
func (r Ring) Contains(x vec.Point) bool {
	return r.Outer.Contains(x) && !r.Inner.Contains(x)
}

// LShape builds an L-shaped (non-convex) target as the union of two
// overlapping boxes sharing the corner at `corner`: a horizontal arm
// extending armLen along dim a and a vertical arm extending armLen along
// dim b, both of half-thickness `thick` in every other dimension. It is a
// MultiRegion, so the existing multi-region oracle machinery (seeding one
// example per component) applies unchanged.
func LShape(corner vec.Point, a, b int, armLen, thick float64) (MultiRegion, error) {
	dims := len(corner)
	if dims == 0 {
		return MultiRegion{}, fmt.Errorf("oracle: empty corner point")
	}
	if a < 0 || a >= dims || b < 0 || b >= dims || a == b {
		return MultiRegion{}, fmt.Errorf("oracle: L-shape arms need two distinct dims in [0,%d), got %d and %d", dims, a, b)
	}
	if armLen <= 0 || thick <= 0 {
		return MultiRegion{}, fmt.Errorf("oracle: L-shape arm length %g and thickness %g must be positive", armLen, thick)
	}
	arm := func(along int) (Region, error) {
		center := make(vec.Point, dims)
		widths := make(vec.Point, dims)
		for i := range corner {
			center[i] = corner[i]
			widths[i] = thick
		}
		center[along] = corner[along] + armLen/2
		widths[along] = armLen / 2
		return NewRegion(center, widths)
	}
	ra, err := arm(a)
	if err != nil {
		return MultiRegion{}, err
	}
	rb, err := arm(b)
	if err != nil {
		return MultiRegion{}, err
	}
	return NewMultiRegion(ra, rb)
}

// NewShape builds an oracle whose ground truth is an arbitrary Target
// geometry. The representative region (Region()) is the target itself
// when it is a Region, the first component of a MultiRegion, or the outer
// box of a Ring; other shapes fall back to the dataset bounds so
// downstream consumers always have a box to reason about.
func NewShape(ds *dataset.Dataset, t Target) (*Oracle, error) {
	truth, err := over(ds, t)
	if err != nil {
		return nil, err
	}
	rep, err := representative(ds, t)
	if err != nil {
		return nil, err
	}
	o := &Oracle{region: rep, truth: truth}
	if mr, ok := t.(MultiRegion); ok {
		o.targets = mr
	}
	return o, nil
}

// representative picks the box stand-in for a shape (see NewShape).
func representative(ds *dataset.Dataset, t Target) (Region, error) {
	switch s := t.(type) {
	case Region:
		return s, nil
	case MultiRegion:
		return s.Regions[0], nil
	case Ring:
		return s.Outer, nil
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return Region{}, err
	}
	widths := bounds.Widths()
	for i, w := range widths {
		if w <= 0 {
			widths[i] = 1
		} else {
			widths[i] = w / 2
		}
	}
	return NewRegion(bounds.Center(), widths)
}
