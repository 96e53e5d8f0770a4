package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// SeriesPoint is one (x, y) observation; for the accuracy figures x is the
// number of labeled examples and y is the F-measure.
type SeriesPoint struct {
	X float64
	Y float64
}

// Series is a named, ordered sequence of observations.
type Series struct {
	Name   string
	Points []SeriesPoint
}

// Append adds an observation.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, SeriesPoint{X: x, Y: y})
}

// YAt returns the y value at the largest recorded x that does not exceed
// the query x (step interpolation), and false when x precedes all points.
func (s *Series) YAt(x float64) (float64, bool) {
	best := -1
	for i, p := range s.Points {
		if p.X <= x {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return 0, false
	}
	return s.Points[best].Y, true
}

// FirstXReaching returns the smallest x whose y meets or exceeds the
// threshold, and false if the series never reaches it. For accuracy curves
// this answers "how many labels until F1 >= t", the user-effort comparison
// made in the paper's Figures 3-5 discussion.
func (s *Series) FirstXReaching(threshold float64) (float64, bool) {
	for _, p := range s.Points {
		if p.Y >= threshold {
			return p.X, true
		}
	}
	return 0, false
}

// MeanSeries averages several runs of the same experiment pointwise by x.
// Each distinct x across the runs becomes one output point whose y is the
// mean of all runs' step-interpolated values at that x; runs that have no
// value yet at some x are excluded from that x's mean. This is how "averages
// of 10 complete runs" (§4.1) are computed for the accuracy curves.
func MeanSeries(name string, runs []*Series) *Series {
	xsSet := map[float64]bool{}
	for _, r := range runs {
		for _, p := range r.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	out := &Series{Name: name}
	for _, x := range xs {
		var sum float64
		n := 0
		for _, r := range runs {
			if y, ok := r.YAt(x); ok {
				sum += y
				n++
			}
		}
		if n > 0 {
			out.Append(x, sum/float64(n))
		}
	}
	return out
}

// FormatTable renders several series as an aligned text table with one row
// per x value present in any series (step-interpolated elsewhere). It is the
// textual equivalent of the paper's figures.
func FormatTable(xLabel, yFormat string, series ...*Series) string {
	if yFormat == "" {
		yFormat = "%.3f"
	}
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, " %16s", fmt.Sprintf(yFormat, y))
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
