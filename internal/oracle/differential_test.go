package oracle_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/vec"
)

// eager is a ground-truth set built the way the oracles once built theirs
// at construction: one Select per box, or one Scan with the box tests,
// over the whole dataset.
type eager map[dataset.RowID]bool

func selectBoxes(ds *dataset.Dataset, boxes ...vec.Box) eager {
	rel := eager{}
	for _, b := range boxes {
		for _, id := range ds.Select(b) {
			rel[id] = true
		}
	}
	return rel
}

func scanRing(ds *dataset.Dataset, ring oracle.Ring) eager {
	rel := eager{}
	outer, inner := ring.Outer.Box(), ring.Inner.Box()
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		if outer.Contains(row) && !inner.Contains(row) {
			rel[id] = true
		}
		return true
	})
	return rel
}

// lowest is the eager seed: the lowest id of the set whose row lies in
// within (anywhere when within is nil).
func (rel eager) lowest(ds *dataset.Dataset, within *vec.Box) (dataset.RowID, bool) {
	best, found := dataset.RowID(0), false
	for id := range rel {
		if within != nil && !within.Contains(ds.Row(id)) {
			continue
		}
		if !found || id < best {
			best, found = id, true
		}
	}
	return best, found
}

// sameBits compares rows bit for bit, so rows holding NaN compare equal to
// their copies.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func region(t *testing.T, center, widths []float64) oracle.Region {
	t.Helper()
	r, err := oracle.NewRegion(center, widths)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// differentialFixture is a generated 3-D dataset plus, for every region
// the cases use, rows on each face of its box and one ulp either side of
// it, and rows holding a NaN (alone, and beside a coordinate outside).
type differentialFixture struct {
	ds         *dataset.Dataset
	a, b, c    oracle.Region
	ring       oracle.Ring
	empty      oracle.Region
	regionsAll []oracle.Region
}

func newDifferentialFixture(t *testing.T) *differentialFixture {
	t.Helper()
	f := &differentialFixture{
		// 0.1 + 0.2 rounds to 0.30000000000000004: a face row of a sits
		// at relative distance 1.0000000000000002.
		a:     region(t, []float64{0.1, 0.5, 0.5}, []float64{0.2, 0.1, 0.15}),
		b:     region(t, []float64{0.7, 0.3, 0.6}, []float64{0.05, 0.2, 0.1}),
		c:     region(t, []float64{0.5, 0.5, 0.5}, []float64{0.2, 0.2, 0.2}),
		empty: region(t, []float64{5, 5, 5}, []float64{0.1, 0.1, 0.1}),
	}
	ring, err := oracle.ConcentricRing(f.c, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f.ring = ring
	f.regionsAll = []oracle.Region{f.a, f.b, ring.Outer, ring.Inner}

	rng := rand.New(rand.NewSource(17))
	f.ds = dataset.New(dataset.MustSchema("x", "y", "z"), 0)
	add := func(row []float64) {
		if _, err := f.ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		add([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	for _, r := range f.regionsAll {
		for dim := range r.Center {
			lo, hi := r.Center[dim]-r.Widths[dim], r.Center[dim]+r.Widths[dim]
			for _, x := range []float64{lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(lo, math.Inf(1)),
				math.Nextafter(hi, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))} {
				row := vec.Clone(r.Center)
				row[dim] = x
				add(row)
			}
			nan := vec.Clone(r.Center)
			nan[dim] = math.NaN()
			add(nan)
			other := (dim + 1) % len(r.Center)
			nan[other] = r.Center[other] + 2*r.Widths[other]
			add(nan)
		}
	}
	return f
}

// checkOracle holds every question an Oracle answers to the eager set:
// the labeler's Label and IsRelevant on each (id, row), Relevant,
// RelevantCount, SeedRelevant, and SeedRelevantIn over each probe region.
func checkOracle(t *testing.T, ds *dataset.Dataset, o *oracle.Oracle, want eager, probes []oracle.Region) {
	t.Helper()
	lab := ide.OracleLabeler{O: o}
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		w := want[id]
		if got := lab.IsRelevant(uint32(id), row); got != w {
			t.Fatalf("IsRelevant(%d, %v) = %v, eager set says %v", id, row, got, w)
		}
		if got := lab.Label(uint32(id), row) == oracle.Positive; got != w {
			t.Fatalf("Label(%d, %v) positive = %v, eager set says %v", id, row, got, w)
		}
		if got := o.Relevant(id); got != w {
			t.Fatalf("Relevant(%d) = %v, eager set says %v", id, got, w)
		}
		return true
	})
	if lab.Count() != ds.Len() {
		t.Fatalf("%d labels counted for %d solicitations", lab.Count(), ds.Len())
	}
	if o.Relevant(dataset.RowID(ds.Len())) {
		t.Fatal("an id past the dataset is relevant")
	}
	if got := o.RelevantCount(); got != len(want) {
		t.Fatalf("RelevantCount = %d, eager set holds %d", got, len(want))
	}
	checkSeed := func(what string, id dataset.RowID, row []float64, ok bool, err error, within *vec.Box) {
		t.Helper()
		wantID, wantOK := want.lowest(ds, within)
		if err != nil || ok != wantOK || (ok && id != wantID) {
			t.Fatalf("%s = %d, %v, %v; eager lowest is %d, %v", what, id, ok, err, wantID, wantOK)
		}
		if !ok {
			return
		}
		if !sameBits(row, ds.Row(id)) {
			t.Fatalf("%s row %v, dataset row %v", what, row, ds.Row(id))
		}
		row[0] = -1
		if ds.Row(id)[0] == -1 {
			t.Fatalf("%s returned the dataset's row, not a copy", what)
		}
	}
	id, row, ok, err := o.SeedRelevant()
	checkSeed("SeedRelevant", id, row, ok, err, nil)
	for _, r := range probes {
		box := r.Box()
		id, row, ok, err := o.SeedRelevantIn(r)
		checkSeed("SeedRelevantIn", id, row, ok, err, &box)
	}
	if o.LabelsGiven() != ds.Len() {
		t.Fatal("whole-set calls counted as labels")
	}
}

// TestOraclesMatchEagerGroundTruth: New, NewMulti, NewShape and
// NewDeferred answer exactly what an eagerly built set answers, on a
// generated dataset with rows on and beside every box face and rows
// holding NaN.
func TestOraclesMatchEagerGroundTruth(t *testing.T) {
	f := newDifferentialFixture(t)
	ds := f.ds
	probes := []oracle.Region{f.a, f.b, f.c, f.ring.Inner, f.empty}
	mr, err := oracle.NewMultiRegion(f.a, f.b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() (*oracle.Oracle, error)
		want  eager
	}{
		{"New", func() (*oracle.Oracle, error) { return oracle.New(ds, f.a) }, selectBoxes(ds, f.a.Box())},
		{"New/empty", func() (*oracle.Oracle, error) { return oracle.New(ds, f.empty) }, selectBoxes(ds, f.empty.Box())},
		{"NewMulti", func() (*oracle.Oracle, error) { return oracle.NewMulti(ds, mr) }, selectBoxes(ds, f.a.Box(), f.b.Box())},
		{"NewShape/region", func() (*oracle.Oracle, error) { return oracle.NewShape(ds, f.b) }, selectBoxes(ds, f.b.Box())},
		{"NewShape/multi", func() (*oracle.Oracle, error) { return oracle.NewShape(ds, mr) }, selectBoxes(ds, f.a.Box(), f.b.Box())},
		{"NewShape/ring", func() (*oracle.Oracle, error) { return oracle.NewShape(ds, f.ring) }, scanRing(ds, f.ring)},
		{"NewDeferred", func() (*oracle.Oracle, error) {
			return oracle.NewDeferred(f.a, func() (*dataset.Dataset, error) { return ds, nil }), nil
		}, selectBoxes(ds, f.a.Box())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name != "New/empty" && len(c.want) == 0 {
				t.Fatal("fixture leaves the target empty")
			}
			o, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, ds, o, c.want, probes)
		})
	}
}

// TestDriftingOracleMatchesEagerGroundTruth: a drifting user labels each
// solicitation with the box of the region at that label count, and seeds
// and answers IsRelevant and Relevant from the initial region's set.
func TestDriftingOracleMatchesEagerGroundTruth(t *testing.T) {
	f := newDifferentialFixture(t)
	ds := f.ds
	d, err := oracle.NewDrift(f.a, f.b, 3000)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.NewDrifting(ds, d)
	if err != nil {
		t.Fatal(err)
	}
	lab := ide.DriftingOracleLabeler{O: o}
	want := selectBoxes(ds, f.a.Box())
	labels := 0
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		if got := lab.IsRelevant(uint32(id), row); got != want[id] {
			t.Fatalf("IsRelevant(%d, %v) = %v, eager initial set says %v", id, row, got, want[id])
		}
		if got := o.Relevant(id); got != want[id] {
			t.Fatalf("Relevant(%d) = %v, eager initial set says %v", id, got, want[id])
		}
		wantLabel := d.At(labels).Box().Contains(row)
		labels++
		if got := lab.Label(uint32(id), row) == oracle.Positive; got != wantLabel {
			t.Fatalf("label %d of (%d, %v) positive = %v, region box says %v", labels, id, row, got, wantLabel)
		}
		return true
	})
	wantID, _ := want.lowest(ds, nil)
	id, row, ok, err := o.SeedRelevant()
	if err != nil || !ok || id != wantID || !sameBits(row, ds.Row(id)) {
		t.Fatalf("SeedRelevant = %d, %v, %v; eager lowest is %d", id, ok, err, wantID)
	}
}

// TestDeferredOracleLoadsOnDemand: labels and IsRelevant never call the
// loader; the first whole-set call calls it once; a failed load becomes
// the seed calls' error while labels still answer from the row.
func TestDeferredOracleLoadsOnDemand(t *testing.T) {
	f := newDifferentialFixture(t)
	ds := f.ds
	loads := 0
	o := oracle.NewDeferred(f.a, func() (*dataset.Dataset, error) {
		loads++
		return ds, nil
	})
	lab := ide.OracleLabeler{O: o}
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		lab.IsRelevant(uint32(id), row)
		lab.Label(uint32(id), row)
		return true
	})
	if loads != 0 {
		t.Fatalf("labeling loaded the dataset %d times", loads)
	}
	o.RelevantCount()
	o.SeedRelevant()
	o.SeedRelevantIn(f.a)
	o.Relevant(0)
	if loads != 1 {
		t.Fatalf("whole-set calls loaded the dataset %d times, want 1", loads)
	}

	unreadable := errors.New("store unreadable")
	bad := oracle.NewDeferred(f.a, func() (*dataset.Dataset, error) { return nil, unreadable })
	if _, _, ok, err := bad.SeedRelevant(); ok || !errors.Is(err, unreadable) {
		t.Fatalf("SeedRelevant over a failed load = %v, %v", ok, err)
	}
	if _, _, ok, err := bad.SeedRelevantIn(f.a); ok || !errors.Is(err, unreadable) {
		t.Fatalf("SeedRelevantIn over a failed load = %v, %v", ok, err)
	}
	if _, _, err := (ide.OracleLabeler{O: bad}).SeedPositives(1); !errors.Is(err, unreadable) {
		t.Fatalf("SeedPositives over a failed load: %v", err)
	}
	if bad.RelevantCount() != 0 || bad.Relevant(0) {
		t.Fatal("a failed load must answer as an empty dataset")
	}
	if bad.LabelPoint(f.a.Center) != oracle.Positive {
		t.Fatal("labels must not depend on the load")
	}

	flat := dataset.New(dataset.MustSchema("x", "y"), 0)
	mismatched := oracle.NewDeferred(f.a, func() (*dataset.Dataset, error) { return flat, nil })
	if _, _, _, err := mismatched.SeedRelevant(); err == nil {
		t.Fatal("a loaded dataset of other dimensionality must be refused")
	}
}

// TestFirstWholeSetCallConcurrent: several goroutines make the first
// whole-set call on one oracle at once (run it under -race); the set is
// loaded and built once and every answer matches the eager set.
func TestFirstWholeSetCallConcurrent(t *testing.T) {
	f := newDifferentialFixture(t)
	ds := f.ds
	want := selectBoxes(ds, f.a.Box())
	wantID, _ := want.lowest(ds, nil)
	var loads atomic.Int32
	o := oracle.NewDeferred(f.a, func() (*dataset.Dataset, error) {
		loads.Add(1)
		return ds, nil
	})
	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if n := o.RelevantCount(); n != len(want) {
					errs <- "RelevantCount disagrees"
				}
			case 1:
				if id, _, ok, err := o.SeedRelevant(); err != nil || !ok || id != wantID {
					errs <- "SeedRelevant disagrees"
				}
			case 2:
				if id, _, ok, err := o.SeedRelevantIn(f.a); err != nil || !ok || id != wantID {
					errs <- "SeedRelevantIn disagrees"
				}
			default:
				if !o.Relevant(wantID) {
					errs <- "Relevant disagrees"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("dataset loaded %d times, want 1", n)
	}
}
