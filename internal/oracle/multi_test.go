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

func twoRegions(t *testing.T) (Region, Region) {
	t.Helper()
	a, err := NewRegion(vec.Point{0, 0}, vec.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRegion(vec.Point{10, 10}, vec.Point{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestNewMultiRegionValidation(t *testing.T) {
	if _, err := NewMultiRegion(); err == nil {
		t.Error("empty multi-region should fail")
	}
	a, _ := twoRegions(t)
	oneD, _ := NewRegion(vec.Point{0}, vec.Point{1})
	if _, err := NewMultiRegion(a, oneD); err == nil {
		t.Error("mixed dims should fail")
	}
}

func TestMultiRegionContainsUnion(t *testing.T) {
	a, b := twoRegions(t)
	m, err := NewMultiRegion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 2 {
		t.Errorf("Dims = %d", m.Dims())
	}
	cases := []struct {
		x    vec.Point
		want bool
	}{
		{vec.Point{0, 0}, true},    // inside a
		{vec.Point{10, 10}, true},  // inside b
		{vec.Point{11.5, 9}, true}, // inside b only
		{vec.Point{5, 5}, false},   // between
		{vec.Point{-3, 0}, false},  // outside both
	}
	for _, c := range cases {
		if got := m.Contains(c.x); got != c.want {
			t.Errorf("Contains(%v) = %v", c.x, got)
		}
		// Relative distance agrees with membership at the <=1 boundary.
		if inside := m.RelativeDistance(c.x) <= 1; inside != c.want {
			t.Errorf("RelativeDistance(%v) disagreement", c.x)
		}
	}
	// Union distance is the min of component distances.
	x := vec.Point{5, 5}
	want := math.Min(a.RelativeDistance(x), b.RelativeDistance(x))
	if got := m.RelativeDistance(x); got != want {
		t.Errorf("RelativeDistance = %g, want %g", got, want)
	}
}

func TestNewMultiOracle(t *testing.T) {
	ds := dataset.New(dataset.MustSchema("x", "y"), 0)
	ds.Append([]float64{0, 0})    // in region a
	ds.Append([]float64{10, 10})  // in region b
	ds.Append([]float64{5, 5})    // in neither
	ds.Append([]float64{0.5, .5}) // in a
	a, b := twoRegions(t)
	m, _ := NewMultiRegion(a, b)
	o, err := NewMulti(ds, m)
	if err != nil {
		t.Fatal(err)
	}
	if o.RelevantCount() != 3 {
		t.Fatalf("RelevantCount = %d", o.RelevantCount())
	}
	if o.LabelPoint(ds.Row(0)) != Positive || o.LabelPoint(ds.Row(1)) != Positive || o.LabelPoint(ds.Row(2)) != Negative {
		t.Error("multi-region labels wrong")
	}
	if o.LabelPoint(vec.Point{9, 9}) != Positive {
		t.Error("LabelPoint should use the union")
	}
	if got := len(o.Targets().Regions); got != 2 {
		t.Errorf("Targets has %d regions", got)
	}
	// Dims mismatch fails.
	one := dataset.New(dataset.MustSchema("x"), 0)
	one.Append([]float64{0})
	if _, err := NewMulti(one, m); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestSingleRegionOracleTargets(t *testing.T) {
	ds := dataset.New(dataset.MustSchema("x", "y"), 0)
	ds.Append([]float64{0, 0})
	a, _ := twoRegions(t)
	o, err := New(ds, a)
	if err != nil {
		t.Fatal(err)
	}
	targets := o.Targets()
	if len(targets.Regions) != 1 {
		t.Fatalf("single-region oracle Targets has %d regions", len(targets.Regions))
	}
	if !slices.Equal(targets.Regions[0].Center, a.Center) {
		t.Error("Targets does not carry the region")
	}
}

func TestFindMultiRegionDisjoint(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 20000, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FindMultiRegion(ds, 2, 0.01, 0.5, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Regions) != 2 {
		t.Fatalf("%d regions", len(m.Regions))
	}
	if m.Regions[0].Box().Intersects(m.Regions[1].Box()) {
		t.Error("regions intersect")
	}
	sel := m.Selectivity(ds)
	if sel < 0.002 || sel > 0.05 {
		t.Errorf("union selectivity %g far from 0.01", sel)
	}
}

func TestFindMultiRegionValidation(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 500, Seed: 1})
	if _, err := FindMultiRegion(ds, 0, 0.01, 0.5, 1, 4); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := FindMultiRegion(ds, 2, 0, 0.5, 1, 4); err == nil {
		t.Error("fraction=0 should fail")
	}
	if _, err := FindMultiRegion(ds, 2, 1.5, 0.5, 1, 4); err == nil {
		t.Error("fraction>1 should fail")
	}
}

func TestQuickMultiRegionUnionSemantics(t *testing.T) {
	a, b := func() (Region, Region) {
		a, _ := NewRegion(vec.Point{0, 0}, vec.Point{1, 2})
		b, _ := NewRegion(vec.Point{4, -3}, vec.Point{0.5, 1})
		return a, b
	}()
	m, err := NewMultiRegion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := vec.Point{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		return m.Contains(x) == (a.Contains(x) || b.Contains(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
