package learn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

// tableWorld is the state one generated op sequence drives: a training set
// that mostly grows, a fixed universe of points, and the subset of them the
// next pass presents.
type tableWorld struct {
	rng    *rand.Rand
	dims   int
	k      int
	scales []float64
	X      [][]float64
	y      []int
	rows   [][]float64 // rows[id] is point id's feature vector
	active []uint32    // ascending
	parked []uint32    // a block swapped out, waiting to come back
}

// latticeRow draws from a small integer lattice: with power-of-two scales
// every distance is exact, so duplicates of training rows and exact d_k²
// ties between different rows are common rather than measure-zero.
func (w *tableWorld) latticeRow() []float64 {
	row := make([]float64, w.dims)
	for d := range row {
		row[d] = float64(w.rng.Intn(9) - 4)
	}
	return row
}

func (w *tableWorld) fit(t *testing.T) *DWKNN {
	t.Helper()
	m := NewDWKNN(w.k, w.scales)
	if err := m.Fit(w.X, w.y); err != nil {
		t.Fatal(err)
	}
	return m
}

// appendLabels adds 1–3 training rows: fresh lattice rows, exact copies of
// existing training rows (d² ties that the larger index must lose), and the
// mirror image of a training row through an active point (an exact tie at
// that point's neighbour distance).
func (w *tableWorld) appendLabels() {
	for n := 1 + w.rng.Intn(3); n > 0; n-- {
		var row []float64
		switch w.rng.Intn(4) {
		case 0:
			row = slices.Clone(w.X[w.rng.Intn(len(w.X))])
		case 1:
			if len(w.active) > 0 {
				q := w.rows[w.active[w.rng.Intn(len(w.active))]]
				x := w.X[w.rng.Intn(len(w.X))]
				row = make([]float64, w.dims)
				for d := range row {
					row[d] = 2*q[d] - x[d]
				}
				break
			}
			fallthrough
		default:
			row = w.latticeRow()
		}
		w.X = append(w.X, row)
		w.y = append(w.y, w.rng.Intn(2))
	}
}

// lists returns every active point's k-NN list under m, from scratch.
func (w *tableWorld) lists(m *DWKNN) map[uint32][]neighbor {
	s := getDWKNNScratch(m)
	defer putDWKNNScratch(s)
	out := make(map[uint32][]neighbor, len(w.active))
	for _, id := range w.active {
		out[id] = slices.Clone(m.nearestInto(w.rows[id], m.effectiveK(), s))
	}
	return out
}

// pass feeds ids through the table under m, holding every posterior to a
// from-scratch PosteriorPositive on m bit for bit, and ends the pass
// complete.
func (w *tableWorld) pass(t *testing.T, tab *NeighborTable, m *DWKNN, ids []uint32, capacity int, what string) NeighborPass {
	t.Helper()
	if err := tab.Begin(m, capacity); err != nil {
		t.Fatal(err)
	}
	w.feed(t, tab, m, ids, what)
	return tab.End(true)
}

func (w *tableWorld) feed(t *testing.T, tab *NeighborTable, m *DWKNN, ids []uint32, what string) {
	t.Helper()
	for _, id := range ids {
		got, err := tab.Posterior(id, w.rows[id])
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.PosteriorPositive(w.rows[id])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: id %d with %d rows, K %d: table %v (%#x) != scratch %v (%#x)",
				what, id, len(m.x), m.K, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestNeighborTableAgainstScratch drives seeded op sequences through a
// NeighborTable and compares every posterior it returns, math.Float64bits
// for math.Float64bits, against PosteriorPositive on a freshly fitted model.
// Where the outcome of the merge-walk is determined it also checks the
// tally: what must be carried is carried, what must reset scans from
// scratch, and Changed counts exactly the points whose k-NN list differs.
func TestNeighborTableAgainstScratch(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := &tableWorld{rng: rng, dims: 1 + rng.Intn(3), k: 1 + rng.Intn(7)}
		w.scales = make([]float64, w.dims)
		for d := range w.scales {
			w.scales[d] = float64(int(1) << rng.Intn(3))
		}
		// Start below K rows: the lists are not full yet.
		w.X = [][]float64{w.latticeRow(), w.latticeRow()}
		w.y = []int{0, 1}
		universe := 40 + rng.Intn(120)
		for id := 0; id < universe; id++ {
			row := w.latticeRow()
			if rng.Intn(5) == 0 {
				for d := range row {
					row[d] += rng.NormFloat64()
				}
			}
			w.rows = append(w.rows, row)
			if rng.Intn(3) != 0 {
				w.active = append(w.active, uint32(id))
			}
		}

		var tab NeighborTable
		prev := w.fit(t)
		w.pass(t, &tab, prev, w.active, len(w.active), "first pass")
		// retained says the table should hold exactly prev's lists for the
		// previous pass's ids; seen is that id set.
		retained := true
		seen := slices.Clone(w.active)

		for step := 0; step < 60; step++ {
			// Sometimes short, so storage also grows in mid-pass.
			capacity := len(w.active) - 4 + rng.Intn(12)
			mustReset, appendOnly := false, false
			var what string
			switch op := rng.Intn(12); op {
			case 0, 1, 2, 3:
				what, appendOnly = "append", true
				w.appendLabels()
			case 4:
				what, appendOnly = "drop ids", true
				w.active = slices.DeleteFunc(w.active, func(uint32) bool { return rng.Intn(6) == 0 })
			case 5:
				what, appendOnly = "swap block", true
				if len(w.parked) > 0 {
					w.active = append(w.active, w.parked...)
					slices.Sort(w.active)
					w.parked = nil
				} else if n := len(w.active); n > 4 {
					lo := rng.Intn(n - 3)
					hi := lo + 1 + rng.Intn(n-lo-1)
					w.parked = slices.Clone(w.active[lo:hi])
					w.active = slices.Delete(w.active, lo, hi)
				}
				w.appendLabels()
			case 6:
				what, appendOnly = "same model twice", true
			case 7:
				what, mustReset = "K change", true
				w.k = 1 + (w.k+rng.Intn(6))%7
			case 8:
				what, mustReset = "scale change", true
				w.scales = slices.Clone(w.scales)
				w.scales[rng.Intn(w.dims)] *= 2
			case 9:
				what, mustReset = "label flip", true
				i := rng.Intn(len(w.y))
				w.y = slices.Clone(w.y)
				w.y[i] = 1 - w.y[i]
			case 10:
				what, mustReset = "shrinking set", true
				if len(w.X) > 2 {
					w.X, w.y = w.X[:len(w.X)-1], w.y[:len(w.y)-1]
				} else {
					w.X = slices.Clone(w.X)
					w.X[0] = w.latticeRow()
				}
			case 11:
				// An interrupted or disordered pass retains nothing.
				w.appendLabels()
				m := w.fit(t)
				switch rng.Intn(3) {
				case 0:
					what = "interrupted pass"
					if err := tab.Begin(m, capacity); err != nil {
						t.Fatal(err)
					}
					w.feed(t, &tab, m, w.active[:rng.Intn(len(w.active)+1)], what)
					tab.End(false)
				case 1:
					what = "abandoned pass"
					if err := tab.Begin(m, capacity); err != nil {
						t.Fatal(err)
					}
					w.feed(t, &tab, m, w.active[:rng.Intn(len(w.active)+1)], what)
				default:
					what = "shuffled pass"
					ids := slices.Clone(w.active)
					rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					if len(ids) > 0 && rng.Intn(2) == 0 {
						ids = append(ids, ids[0]) // a repeated id
					}
					pass := w.pass(t, &tab, m, ids, capacity, what)
					if slices.IsSorted(ids) && len(ids) == len(w.active) {
						break // the shuffle was the identity: an ordinary pass
					}
					if tab.Len() != 0 {
						t.Fatalf("seed %d step %d: %s retained %d lists", seed, step, what, tab.Len())
					}
					if pass.Carried+pass.Scanned != len(ids) {
						t.Fatalf("seed %d step %d: %s tallied %+v for %d points", seed, step, what, pass, len(ids))
					}
				}
				if what != "shuffled pass" || tab.Len() == 0 {
					retained = false
				} else {
					prev, seen = m, slices.Clone(w.active)
				}
				mustReset = !retained
				what += ", then a pass"
			}

			m := w.fit(t)
			var before, after map[uint32][]neighbor
			if appendOnly && retained {
				before, after = w.lists(prev), w.lists(m)
			}
			pass := w.pass(t, &tab, m, w.active, capacity, what)
			if pass.Carried+pass.Scanned != len(w.active) || pass.Changed > pass.Carried {
				t.Fatalf("seed %d step %d (%s): tally %+v for %d points", seed, step, what, pass, len(w.active))
			}
			if tab.Len() != len(w.active) {
				t.Fatalf("seed %d step %d (%s): table retains %d lists for %d points", seed, step, what, tab.Len(), len(w.active))
			}
			if mustReset && pass.Carried != 0 {
				t.Fatalf("seed %d step %d (%s): carried %d lists across a reset", seed, step, what, pass.Carried)
			}
			if before != nil {
				// Every id also in the previous pass resumes, and exactly
				// the changed lists are rebuilt.
				common, changed := 0, 0
				for _, id := range w.active {
					if _, ok := slices.BinarySearch(seen, id); ok {
						common++
						if !slices.Equal(before[id], after[id]) {
							changed++
						}
					}
				}
				if pass.Carried != common {
					t.Fatalf("seed %d step %d (%s): carried %d of %d common ids (capacity %d)", seed, step, what, pass.Carried, common, capacity)
				}
				if pass.Changed != changed {
					t.Fatalf("seed %d step %d (%s): %d lists rebuilt, %d differ", seed, step, what, pass.Changed, changed)
				}
			}
			post := make([]float64, len(w.active)+1)
			if n := tab.Posteriors(post); n != len(w.active) {
				t.Fatalf("seed %d step %d: Posteriors wrote %d of %d", seed, step, n, len(w.active))
			}
			for i, id := range w.active {
				want, _ := m.PosteriorPositive(w.rows[id])
				if math.Float64bits(post[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: Posteriors[%d] = %v, want %v", seed, step, i, post[i], want)
				}
			}
			prev, retained, seen = m, true, slices.Clone(w.active)
		}
	}
}

// A pass over ids the table has never seen, with capacity for none of them,
// still scores correctly: slots freed by points that left are reused and,
// when they run out, storage grows.
func TestNeighborTableOutrunsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := &tableWorld{rng: rng, dims: 2, k: 3, scales: []float64{1, 1}}
	for i := 0; i < 6; i++ {
		w.X = append(w.X, w.latticeRow())
		w.y = append(w.y, i%2)
	}
	var evens, odds []uint32
	for id := 0; id < 64; id++ {
		w.rows = append(w.rows, w.latticeRow())
		if id%2 == 0 {
			evens = append(evens, uint32(id))
		} else {
			odds = append(odds, uint32(id))
		}
	}
	var tab NeighborTable
	m := w.fit(t)
	w.active = evens
	w.pass(t, &tab, m, evens, 0, "no capacity")
	bytes := tab.Bytes()
	// Disjoint ids: every newcomer takes the slot of a point that left.
	if pass := w.pass(t, &tab, m, odds, 0, "disjoint ids"); pass.Scanned != len(odds) {
		t.Fatalf("disjoint pass tally %+v", pass)
	}
	if tab.Bytes() != bytes {
		t.Fatalf("swapping in as many points as left grew the table: %d -> %d bytes", bytes, tab.Bytes())
	}
	all := append(slices.Clone(evens), odds...)
	slices.Sort(all)
	if pass := w.pass(t, &tab, m, all, 0, "doubled set"); pass.Carried+pass.Scanned != len(all) {
		t.Fatalf("doubled pass tally %+v", pass)
	}
	if pass := w.pass(t, &tab, m, all, 0, "steady"); pass.Carried != len(all) || pass.Changed != 0 {
		t.Fatalf("steady pass tally %+v", pass)
	}
}

// Storage lifetime: Reset keeps the capacity and drops the contents, Release
// drops both, and steady passes over a stable set allocate nothing.
func TestNeighborTableStorage(t *testing.T) {
	X, y, Q := benchFixture(t, 44, 300, 4)
	scales := []float64{1, 2, 1, 4}
	fit := func(n int) *DWKNN {
		m := NewDWKNN(7, scales)
		if err := m.Fit(X[:n], y[:n]); err != nil {
			t.Fatal(err)
		}
		return m
	}
	var tab NeighborTable
	if tab.Bytes() != 0 {
		t.Fatalf("zero table holds %d bytes", tab.Bytes())
	}
	pass := func(m *DWKNN) NeighborPass {
		if err := tab.Begin(m, len(Q)); err != nil {
			t.Fatal(err)
		}
		for i, q := range Q {
			if _, err := tab.Posterior(uint32(i), q); err != nil {
				t.Fatal(err)
			}
		}
		return tab.End(true)
	}
	pass(fit(3))
	sized := tab.Bytes()
	if want := int64(len(Q)) * (12*7 + 8 + 8); sized != want {
		t.Fatalf("table for %d points at K=7 holds %d bytes, want %d", len(Q), sized, want)
	}
	models := make([]*DWKNN, 0, 41)
	for n := 4; n <= 44; n++ {
		models = append(models, fit(n))
	}
	i := 0
	avg := testing.AllocsPerRun(len(models)-1, func() {
		pass(models[i])
		i++
	})
	if avg != 0 {
		t.Errorf("steady passes allocate %.1f times each, want 0", avg)
	}
	if tab.Bytes() != sized {
		t.Errorf("41 append-only passes moved the table from %d to %d bytes", sized, tab.Bytes())
	}

	tab.Reset()
	if tab.Len() != 0 || tab.Bytes() != sized {
		t.Fatalf("Reset left %d lists and %d bytes (sized %d)", tab.Len(), tab.Bytes(), sized)
	}
	if p := pass(models[len(models)-1]); p.Scanned != len(Q) || tab.Bytes() != sized {
		t.Fatalf("pass after Reset: %+v, %d bytes", p, tab.Bytes())
	}
	tab.Release()
	if tab.Len() != 0 || tab.Bytes() != 0 {
		t.Fatalf("Release left %d lists and %d bytes", tab.Len(), tab.Bytes())
	}
}

func TestNeighborTableMisuse(t *testing.T) {
	var tab NeighborTable
	if err := tab.Begin(NewDWKNN(3, nil), 4); err != ErrNotFitted {
		t.Fatalf("Begin with an unfitted model: %v", err)
	}
	if _, err := tab.Posterior(0, []float64{1}); err == nil {
		t.Fatal("Posterior outside a pass succeeded")
	}
	m := NewDWKNN(3, nil)
	if err := m.Fit([][]float64{{0, 0}, {1, 1}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Begin(m, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Posterior(0, []float64{1}); err == nil {
		t.Fatal("Posterior accepted a row of the wrong width")
	}
	if pass := tab.End(false); pass != (NeighborPass{}) || tab.Len() != 0 {
		t.Fatalf("failed pass: %+v, %d lists", pass, tab.Len())
	}
	if pass := tab.End(true); pass != (NeighborPass{}) {
		t.Fatalf("End without Begin: %+v", pass)
	}
}

// blockPass scores every point of blk through tab one Posterior at a time,
// point i as id i: the pass ScoreBlock must reproduce.
func blockPass(t *testing.T, tab *NeighborTable, m *DWKNN, blk *kernel.Block) NeighborPass {
	t.Helper()
	if err := tab.Begin(m, blk.N); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, blk.Dims)
	for i := 0; i < blk.N; i++ {
		if _, err := tab.Posterior(uint32(i), blk.Row(i, row)); err != nil {
			t.Fatal(err)
		}
	}
	return tab.End(true)
}

// cancelAfter is a context whose Err reports cancellation from its
// (left+1)-th call on.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestScoreBlockMatchesPosterior: ScoreBlock, which tests new training rows
// against a strip of points at once, leaves what the per-point pass leaves —
// every posterior bit for bit, the NeighborPass tally, the retained count
// and the storage — for K = 1…9 over n = 1, 255, 256, 257 and 3 125 points
// on a small lattice (exact distance ties), across passes appending 0, 1
// and 3 rows, from lists not yet full, with ±Inf and NaN training rows, and
// through models that do not extend the retained set (a label flip, a scale
// change). A pass cancelled between strips returns ctx.Err() and retains
// nothing, and steady passes allocate nothing.
func TestScoreBlockMatchesPosterior(t *testing.T) {
	ctx := context.Background()
	for k := 1; k <= 9; k++ {
		for _, n := range []int{1, 255, 256, 257, 3125} {
			rng := rand.New(rand.NewSource(int64(100*k + n)))
			w := &tableWorld{rng: rng, dims: 1 + rng.Intn(3), k: k}
			w.scales = make([]float64, w.dims)
			for d := range w.scales {
				w.scales[d] = float64(int(1) << rng.Intn(3))
			}
			points := make([][]float64, n)
			for i := range points {
				points[i] = w.latticeRow()
				if rng.Intn(4) == 0 {
					points[i][0] += rng.NormFloat64()
				}
			}
			blk := kernel.Pack(points)
			// Two rows: below K from K = 3 on, so the first passes resume
			// lists that are not yet full.
			w.X = [][]float64{w.latticeRow(), w.latticeRow()}
			w.y = []int{0, 1}

			var strip, scalar NeighborTable
			for step := 0; step < 12; step++ {
				what := "append"
				switch step {
				case 5:
					what = "label flip"
					w.y = slices.Clone(w.y)
					w.y[0] = 1 - w.y[0]
				case 8:
					what = "scale change"
					w.scales = slices.Clone(w.scales)
					w.scales[0] *= 2
				}
				appended := []int{0, 1, 3}[step%3]
				for i := 0; i < appended; i++ {
					row := w.latticeRow()
					switch rng.Intn(12) {
					case 0:
						row[rng.Intn(w.dims)] = math.Inf(1 - 2*rng.Intn(2))
					case 1:
						if step > 8 {
							row[rng.Intn(w.dims)] = math.NaN()
						}
					case 2, 3:
						row = slices.Clone(w.X[rng.Intn(len(w.X))]) // a d² tie
					}
					w.X, w.y = append(w.X, row), append(w.y, rng.Intn(2))
				}
				m := w.fit(t)
				got, err := strip.ScoreBlock(ctx, m, blk)
				if err != nil {
					t.Fatal(err)
				}
				want := blockPass(t, &scalar, m, blk)
				where := fmt.Sprintf("K %d n %d step %d (%s, %d rows)", k, n, step, what, len(w.X))
				if got != want {
					t.Fatalf("%s: tally %+v, per-point pass %+v", where, got, want)
				}
				if strip.Len() != scalar.Len() || strip.Bytes() != scalar.Bytes() {
					t.Fatalf("%s: retains %d lists in %d bytes, per-point pass %d in %d", where, strip.Len(), strip.Bytes(), scalar.Len(), scalar.Bytes())
				}
				gp, wp := make([]float64, n), make([]float64, n)
				strip.Posteriors(gp)
				scalar.Posteriors(wp)
				for i := range gp {
					ref, _ := m.PosteriorPositive(points[i])
					if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) || math.Float64bits(gp[i]) != math.Float64bits(ref) {
						t.Fatalf("%s: point %d posterior %v, per-point pass %v, from scratch %v", where, i, gp[i], wp[i], ref)
					}
				}
			}
		}
	}
	t.Run("cancel and steady allocations", scoreBlockCancelAndAllocs)
}

func scoreBlockCancelAndAllocs(t *testing.T) {
	X, y, Q := benchFixture(t, 60, 3125, 3)
	scales := []float64{1, 2, 4}
	models := make([]*DWKNN, 0, 52)
	for n := 8; n <= 60; n++ {
		m := NewDWKNN(7, scales)
		if err := m.Fit(X[:n], y[:n]); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	blk := kernel.Pack(Q)
	var tab NeighborTable
	if _, err := tab.ScoreBlock(context.Background(), models[0], blk); err != nil {
		t.Fatal(err)
	}
	// Cancelled at the fifth of thirteen strips: the error comes back and
	// no list survives, so the next pass scans every point.
	if _, err := tab.ScoreBlock(&cancelAfter{Context: context.Background(), left: 4}, models[1], blk); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
	}
	if tab.Len() != 0 {
		t.Fatalf("cancelled pass retained %d lists", tab.Len())
	}
	if pass, err := tab.ScoreBlock(context.Background(), models[1], blk); err != nil || pass.Scanned != blk.N {
		t.Fatalf("pass after a cancel: %+v, %v", pass, err)
	}
	i := 2
	if avg := testing.AllocsPerRun(len(models)-3, func() {
		if _, err := tab.ScoreBlock(context.Background(), models[i], blk); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Errorf("steady ScoreBlock passes allocate %.1f times each, want 0", avg)
	}
}
