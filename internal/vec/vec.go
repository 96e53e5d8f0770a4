// Package vec provides small d-dimensional point and box utilities used
// throughout the UEI codebase. All operations treat vectors as dense
// []float64 of equal length;
// helpers panic on dimensionality mismatch because such a mismatch is always
// a programming error, never a data error.
package vec

import (
	"fmt"
	"math"
)

// Point is a position in d-dimensional space.
type Point = []float64

// Clone returns a copy of p that shares no storage with it.
func Clone(p Point) Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Box is an axis-aligned d-dimensional box, inclusive on both ends:
// a point p is inside iff Min[i] <= p[i] <= Max[i] for every dimension i.
type Box struct {
	Min Point
	Max Point
}

// NewBox returns a box with copies of min and max. It panics if the two
// points disagree in dimensionality or if min exceeds max anywhere.
func NewBox(min, max Point) Box {
	checkDims(len(min), len(max))
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("vec: inverted box on dimension %d: min %g > max %g", i, min[i], max[i]))
		}
	}
	return Box{Min: Clone(min), Max: Clone(max)}
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Min) }

// Contains reports whether p lies inside b (inclusive bounds).
func (b Box) Contains(p Point) bool {
	checkDims(len(b.Min), len(p))
	for i := range p {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of the box.
func (b Box) Center() Point {
	c := make(Point, len(b.Min))
	for i := range c {
		c[i] = b.Min[i] + (b.Max[i]-b.Min[i])/2
	}
	return c
}

// Widths returns the per-dimension extents of the box.
func (b Box) Widths() Point {
	w := make(Point, len(b.Min))
	for i := range w {
		w[i] = b.Max[i] - b.Min[i]
	}
	return w
}

// Intersects reports whether the two boxes overlap (touching counts).
func (b Box) Intersects(o Box) bool {
	checkDims(len(b.Min), len(o.Min))
	for i := range b.Min {
		if b.Max[i] < o.Min[i] || o.Max[i] < b.Min[i] {
			return false
		}
	}
	return true
}

// Clamp returns a copy of p with each coordinate clamped into the box.
func (b Box) Clamp(p Point) Point {
	checkDims(len(b.Min), len(p))
	out := make(Point, len(p))
	for i := range p {
		out[i] = math.Max(b.Min[i], math.Min(b.Max[i], p[i]))
	}
	return out
}

func checkDims(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: dimensionality mismatch: %d vs %d", a, b))
	}
}
