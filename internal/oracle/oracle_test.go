package oracle

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion(vec.Point{1, 2}, vec.Point{1}); err == nil {
		t.Error("dims mismatch should fail")
	}
	if _, err := NewRegion(vec.Point{}, vec.Point{}); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := NewRegion(vec.Point{0}, vec.Point{0}); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewRegion(vec.Point{0}, vec.Point{-1}); err == nil {
		t.Error("negative width should fail")
	}
	if _, err := NewRegion(vec.Point{0}, vec.Point{math.NaN()}); err == nil {
		t.Error("NaN width should fail")
	}
	r, err := NewRegion(vec.Point{1, 2}, vec.Point{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dims() != 2 {
		t.Errorf("Dims = %d", r.Dims())
	}
}

func TestRelativeDistanceEq4(t *testing.T) {
	// Hand-computed Eq. (4) values.
	r, _ := NewRegion(vec.Point{0, 0}, vec.Point{1, 2})
	cases := []struct {
		x    vec.Point
		want float64
	}{
		{vec.Point{0, 0}, 0},
		{vec.Point{1, 0}, 1},     // on the boundary of dim 0
		{vec.Point{0, 2}, 1},     // on the boundary of dim 1
		{vec.Point{0.5, 1}, 0.5}, // max(0.5, 0.5)
		{vec.Point{2, 0}, 2},     // outside
		{vec.Point{-1, 4}, 2},    // max(1, 2)
	}
	for _, c := range cases {
		if got := r.RelativeDistance(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeDistance(%v) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestContainsMatchesBox(t *testing.T) {
	r, _ := NewRegion(vec.Point{5, 5}, vec.Point{1, 2})
	box := r.Box()
	if !slices.Equal(box.Min, vec.Point{4, 3}) || !slices.Equal(box.Max, vec.Point{6, 7}) {
		t.Fatalf("Box = %+v", box)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := vec.Point{rng.Float64()*10 - 1, rng.Float64()*10 - 1}
		return r.Contains(x) == box.Contains(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestContainsIsTheBoxAtFaces pins the one relevance predicate at a face
// where rounding splits the box test from Eq. (4): c + w rounds to
// 0.30000000000000004, which the box holds and the relative distance puts
// just past 1. Contains, and so every label, follows the box.
func TestContainsIsTheBoxAtFaces(t *testing.T) {
	c, w := 0.1, 0.2
	r, _ := NewRegion(vec.Point{c}, vec.Point{w})
	x := vec.Point{c + w}
	if x[0] != 0.30000000000000004 {
		t.Fatalf("c + w = %v", x[0])
	}
	if !r.Box().Contains(x) || !r.Contains(x) {
		t.Fatal("the face c + w must be inside the range query's box")
	}
	if d := r.RelativeDistance(x); d <= 1 {
		t.Fatalf("RelativeDistance = %v; the example no longer shows the rounding edge", d)
	}
	ds := dataset.New(dataset.MustSchema("x"), 0)
	ds.Append(x)
	o, err := New(ds, r)
	if err != nil {
		t.Fatal(err)
	}
	if o.LabelPoint(x) != Positive || !o.Relevant(0) || o.RelevantCount() != 1 {
		t.Fatal("the label and the ground-truth set must agree on the face row")
	}
}

func TestOracleLabels(t *testing.T) {
	ds := dataset.New(dataset.MustSchema("x", "y"), 0)
	ds.Append([]float64{0, 0})   // inside
	ds.Append([]float64{0.5, 0}) // inside
	ds.Append([]float64{5, 5})   // outside
	r, _ := NewRegion(vec.Point{0, 0}, vec.Point{1, 1})
	o, err := New(ds, r)
	if err != nil {
		t.Fatal(err)
	}
	if o.RelevantCount() != 2 {
		t.Fatalf("RelevantCount = %d", o.RelevantCount())
	}
	if o.LabelPoint(ds.Row(0)) != Positive || o.LabelPoint(ds.Row(2)) != Negative {
		t.Error("LabelPoint of a dataset row wrong")
	}
	if o.LabelPoint(vec.Point{0.1, 0.1}) != Positive {
		t.Error("LabelPoint wrong")
	}
	if !o.Relevant(1) || o.Relevant(2) {
		t.Error("Relevant wrong")
	}
}

func TestOracleDimsMismatch(t *testing.T) {
	ds := dataset.New(dataset.MustSchema("x"), 0)
	ds.Append([]float64{0})
	r, _ := NewRegion(vec.Point{0, 0}, vec.Point{1, 1})
	if _, err := New(ds, r); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestLabelString(t *testing.T) {
	if Positive.String() != "positive" || Negative.String() != "negative" {
		t.Error("label strings wrong")
	}
	if Label(7).String() != "Label(7)" {
		t.Errorf("got %q", Label(7).String())
	}
}

func TestSizeClassFractions(t *testing.T) {
	for _, c := range []struct {
		cls  SizeClass
		want float64
	}{{Small, 0.001}, {Medium, 0.004}, {Large, 0.008}} {
		got, err := c.cls.Fraction()
		if err != nil || got != c.want {
			t.Errorf("%s: got %g, %v", c.cls, got, err)
		}
	}
	if _, err := SizeClass("huge").Fraction(); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestFindRegionHitsTargetCardinality(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 30000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []SizeClass{Small, Medium, Large} {
		frac, _ := cls.Fraction()
		r, err := FindRegion(ds, frac, 0.25, 7, 12)
		if err != nil {
			t.Fatalf("%s: %v", cls, err)
		}
		got := r.Selectivity(ds)
		if got < frac*0.5 || got > frac*2 {
			t.Errorf("%s: selectivity %g not within 2x of %g", cls, got, frac)
		}
	}
}

func TestFindRegionValidation(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 100, Seed: 1})
	if _, err := FindRegion(ds, 0, 0.1, 1, 4); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := FindRegion(ds, 1.5, 0.1, 1, 4); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if _, err := FindRegion(ds, 0.5, 0, 1, 4); err == nil {
		t.Error("tol 0 should fail")
	}
	if _, err := FindRegion(ds, 0.0001, 0.1, 1, 4); err == nil {
		t.Error("sub-single-tuple fraction should fail")
	}
	empty := dataset.New(dataset.MustSchema("x"), 0)
	if _, err := FindRegion(empty, 0.1, 0.1, 1, 4); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestFindRegionDeterministic(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 5000, Seed: 3})
	a, err := FindRegion(ds, 0.01, 0.2, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindRegion(ds, 0.01, 0.2, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Center, b.Center) || !slices.Equal(a.Widths, b.Widths) {
		t.Error("FindRegion not deterministic for equal seeds")
	}
}
