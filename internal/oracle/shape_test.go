package oracle

import (
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

func gridDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.New(dataset.MustSchema("x", "y"), 0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if _, err := ds.Append([]float64{float64(i), float64(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func mustRegion(t *testing.T, center, widths []float64) Region {
	t.Helper()
	r, err := NewRegion(center, widths)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingMembership(t *testing.T) {
	outer := mustRegion(t, []float64{10, 10}, []float64{6, 6})
	ring, err := ConcentricRing(outer, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    vec.Point
		want bool
	}{
		{vec.Point{10, 10}, false}, // dead center: in the hole
		{vec.Point{12, 10}, false}, // still inside the 3-wide hole
		{vec.Point{14, 10}, true},  // in the annulus
		{vec.Point{10, 15}, true},  // in the annulus
		{vec.Point{17, 10}, false}, // outside the outer box
		{vec.Point{3, 3}, false},
	}
	for _, c := range cases {
		if got := ring.Contains(c.p); got != c.want {
			t.Errorf("ring.Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRingValidation(t *testing.T) {
	outer := mustRegion(t, []float64{10, 10}, []float64{5, 5})
	if _, err := NewRing(outer, mustRegion(t, []float64{10, 10}, []float64{5, 5})); err == nil {
		t.Fatal("inner as wide as outer must be rejected (empty ring)")
	}
	if _, err := NewRing(outer, mustRegion(t, []float64{14, 10}, []float64{3, 1})); err == nil {
		t.Fatal("inner escaping the outer box must be rejected")
	}
	if _, err := ConcentricRing(outer, 1.5); err == nil {
		t.Fatal("inner fraction >= 1 must be rejected")
	}
}

func TestShapeOracleRing(t *testing.T) {
	ds := gridDataset(t)
	outer := mustRegion(t, []float64{10, 10}, []float64{6, 6})
	ring, err := ConcentricRing(outer, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewShape(ds, ring)
	if err != nil {
		t.Fatal(err)
	}
	if o.RelevantCount() == 0 {
		t.Fatal("ring over a 20x20 grid must contain tuples")
	}
	// Every relevant tuple must satisfy the ring geometry; the hole must
	// be excluded even though the representative Region (outer box)
	// contains it.
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		if o.Relevant(id) != ring.Contains(row) {
			t.Fatalf("tuple %d (%v): relevant=%v, ring=%v", id, row, o.Relevant(id), ring.Contains(row))
		}
		return true
	})
	if o.LabelPoint(vec.Point{10, 10}) != Negative {
		t.Fatal("the hole's center must label negative")
	}
	if o.LabelPoint(vec.Point{14, 10}) != Positive {
		t.Fatal("an annulus point must label positive")
	}
	if _, _, ok, err := o.SeedRelevant(); err != nil || !ok {
		t.Fatal("ring oracle must be able to seed a positive")
	}
}

func TestLShape(t *testing.T) {
	ls, err := LShape(vec.Point{2, 2}, 0, 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Regions) != 2 {
		t.Fatalf("L-shape has %d components, want 2", len(ls.Regions))
	}
	cases := []struct {
		p    vec.Point
		want bool
	}{
		{vec.Point{2, 2}, true},    // the corner
		{vec.Point{10, 2}, true},   // along the horizontal arm
		{vec.Point{2, 10}, true},   // along the vertical arm
		{vec.Point{10, 10}, false}, // the notch the L excludes
	}
	for _, c := range cases {
		if got := ls.Contains(c.p); got != c.want {
			t.Errorf("lshape.Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := LShape(vec.Point{0, 0}, 0, 0, 5, 1); err == nil {
		t.Fatal("identical arm dims must be rejected")
	}
}

func TestDriftAt(t *testing.T) {
	from := mustRegion(t, []float64{0, 0}, []float64{2, 2})
	to := mustRegion(t, []float64{10, 10}, []float64{4, 4})
	d, err := NewDrift(from, to, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.At(0); !vec.Equal(got.Center, from.Center) {
		t.Fatalf("At(0) center = %v, want %v", got.Center, from.Center)
	}
	mid := d.At(5)
	if !vec.Equal(mid.Center, vec.Point{5, 5}) || !vec.Equal(mid.Widths, vec.Point{3, 3}) {
		t.Fatalf("At(5) = %+v, want center (5,5) widths (3,3)", mid)
	}
	if got := d.At(25); !vec.Equal(got.Center, to.Center) || !vec.Equal(got.Widths, to.Widths) {
		t.Fatalf("At past Over = %+v, want %+v", got, to)
	}
}

func TestDriftingOracleLabelsMove(t *testing.T) {
	ds := gridDataset(t)
	from := mustRegion(t, []float64{3, 3}, []float64{2, 2})
	to := mustRegion(t, []float64{16, 16}, []float64{2, 2})
	d, err := NewDrift(from, to, 4)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewDrifting(ds, d)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple (3,3) is inside the initial region; (16,16) is inside the
	// final one. As labels accumulate the answers flip.
	idFrom := dataset.RowID(3*20 + 3)
	idTo := dataset.RowID(16*20 + 16)
	if !o.Relevant(idFrom) {
		t.Fatal("initial ground truth must contain the From center")
	}
	if o.LabelPoint(ds.Row(idFrom)) != Positive {
		t.Fatal("label 0: From center must be positive")
	}
	if o.LabelPoint(ds.Row(idTo)) != Negative {
		t.Fatal("label 1: To center must still be negative early in the drift")
	}
	for o.LabelsGiven() < 4 {
		o.LabelPoint(ds.Row(idFrom))
	}
	if o.LabelPoint(ds.Row(idFrom)) != Negative {
		t.Fatal("post-drift: From center must have become negative")
	}
	if o.LabelPoint(ds.Row(idTo)) != Positive {
		t.Fatal("post-drift: To center must have become positive")
	}
	if _, _, ok, err := o.SeedRelevant(); err != nil || !ok {
		t.Fatal("drifting oracle must seed from the initial region")
	}
}

// TestDriftingOracleDeterministic pins the seeded-reproducibility
// contract: two oracles over the same dataset and drift answer identical
// label sequences for identical solicitation orders.
func TestDriftingOracleDeterministic(t *testing.T) {
	ds := gridDataset(t)
	from := mustRegion(t, []float64{3, 3}, []float64{3, 3})
	to := mustRegion(t, []float64{15, 15}, []float64{3, 3})
	d, err := NewDrift(from, to, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Label {
		o, err := NewDrifting(ds, d)
		if err != nil {
			t.Fatal(err)
		}
		var out []Label
		for i := 0; i < 30; i++ {
			out = append(out, o.LabelPoint(ds.Row(dataset.RowID((i*37)%ds.Len()))))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("label %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
