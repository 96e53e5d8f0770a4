package learn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

// decideCase is one generated training set and query block for
// TestBlockPositiveMatchesPredict.
type decideCase struct {
	X [][]float64
	y []int
	Q [][]float64
}

// The non-finite coordinates Fit and the block path accept; the third is
// the sign-bit-set NaN that Inf - Inf produces on amd64.
var nonFinite = []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1) - math.Inf(1), math.Inf(1), math.Inf(-1)}

// decideScenarios generate the adversaries of the majority rule. Coordinates
// sit on a coarse integer lattice unless a scenario says otherwise, so exact
// d² ties — between neighbours, and between a negative row and the nearest
// positive row — are the common case, and three rows in four are negative,
// so the rule has something to fire on.
var decideScenarios = []struct {
	name string
	gen  func(rng *rand.Rand, k, dims int) ([][]float64, []int)
}{
	{"fewer-labels-than-k", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		return latticeSet(rng, 1+rng.Intn(k), dims)
	}},
	{"exactly-k-labels", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		return latticeSet(rng, k, dims)
	}},
	{"lattice", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		return latticeSet(rng, k+1+rng.Intn(30), dims)
	}},
	{"one-class-beyond-two-rows", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		X, y := latticeSet(rng, k+2+rng.Intn(20), dims)
		cls := rng.Intn(2)
		for i := range y {
			y[i] = cls
		}
		y[0], y[1] = ClassNegative, ClassPositive
		return X, y
	}},
	{"duplicates-under-opposite-labels", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		X, y := latticeSet(rng, k+2+rng.Intn(20), dims)
		for i := 1; i < len(X); i += 2 {
			X[i], y[i] = X[i-1], 1-y[i-1]
		}
		return X, y
	}},
	{"continuous", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		X, y := latticeSet(rng, k+1+rng.Intn(30), dims)
		for _, row := range X {
			for d := range row {
				row[d] += rng.Float64()
			}
		}
		return X, y
	}},
	{"non-finite-training-rows", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		X, y := latticeSet(rng, k+1+rng.Intn(12), dims)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			// Any position, either class: where the row sits in the scan
			// decides what a selection that met a NaN keeps.
			X[rng.Intn(len(X))][rng.Intn(dims)] = nonFinite[rng.Intn(len(nonFinite))]
		}
		return X, y
	}},
	{"ring", func(rng *rand.Rand, k, dims int) ([][]float64, []int) {
		// Alternating labels at distance 1 from the lattice point (2, 2,
		// ...): every neighbourhood of that query is equidistant (dk == d1,
		// unit weights), and at even k its posterior is exactly 0.5.
		n := 2 * (k/2 + 1 + rng.Intn(3))
		X, y := make([][]float64, n), make([]int, n)
		for i := range X {
			row := make([]float64, dims)
			for d := range row {
				row[d] = 2
			}
			row[i%dims] += float64(1 - 2*(i/dims%2))
			X[i], y[i] = row, i%2
		}
		return X, y
	}},
}

// latticeSet draws n rows on the integer lattice [0, 4)^dims, a quarter of
// them positive.
func latticeSet(rng *rand.Rand, n, dims int) ([][]float64, []int) {
	X, y := make([][]float64, n), make([]int, n)
	for i := range X {
		row := make([]float64, dims)
		for d := range row {
			row[d] = float64(rng.Intn(4))
		}
		X[i] = row
		if rng.Intn(4) == 0 {
			y[i] = ClassPositive
		}
	}
	return X, y
}

// decideQueries draws n queries around a training set: lattice points
// (exact ties, often a training row's position), training rows themselves,
// half-lattice points (equidistant pairs), continuous points, and the
// occasional non-finite coordinate.
func decideQueries(rng *rand.Rand, X [][]float64, n, dims int) [][]float64 {
	Q := make([][]float64, n)
	for i := range Q {
		q := make([]float64, dims)
		switch kind := rng.Intn(16); {
		case kind < 5:
			for d := range q {
				q[d] = float64(rng.Intn(5))
			}
		case kind < 8:
			copy(q, X[rng.Intn(len(X))])
		case kind < 11:
			for d := range q {
				q[d] = float64(rng.Intn(9)) / 2
			}
		case kind < 15:
			for d := range q {
				q[d] = rng.Float64()*6 - 1
			}
		default:
			for d := range q {
				q[d] = float64(rng.Intn(4))
			}
			q[rng.Intn(dims)] = nonFinite[rng.Intn(len(nonFinite))]
		}
		Q[i] = q
	}
	// The all-equidistant query of the ring scenario, in every case.
	for d := range Q[0] {
		Q[0][d] = 2
	}
	return Q
}

// TestBlockPositiveMatchesPredict is the differential test of the majority
// rule: for every K in 1..9 (both parities: the threshold is k/2+1, not
// (k+1)/2), dims 1..9 (past any short unrolled path over the dimensions)
// and every scenario above, BlockPositive must equal Predict point for point
// — through a block offset lo > 0, strips that are not multiples of 256, and
// BlockPredictInto's chunking. A shortcut no generated point reaches would
// prove nothing, so the test also counts how often the rule fired, and it
// fails if the rule ever fired on a point whose posterior reaches the
// threshold. Whether the kernel's pass stops early is the kernel's own
// test's to count (TestMajorityNearerMatchesPortable).
func TestBlockPositiveMatchesPredict(t *testing.T) {
	ctx := context.Background()
	var points, fired, half, nonFinitePoints int
	for k := 1; k <= 9; k++ {
		for si, sc := range decideScenarios {
			for trial := 0; trial < 6; trial++ {
				rng := rand.New(rand.NewSource(int64(k*10000 + si*100 + trial)))
				dims := 1 + rng.Intn(9)
				X, y := sc.gen(rng, k, dims)
				scales := make([]float64, dims)
				for d := range scales {
					scales[d] = 1
				}
				if trial%2 == 1 {
					scales = nil // derived from the training extent
				}
				dw := NewDWKNN(k, scales)
				if err := dw.Fit(X, y); err != nil {
					t.Fatalf("k=%d %s: Fit: %v", k, sc.name, err)
				}
				nq := 300 + rng.Intn(400)
				Q := decideQueries(rng, X, nq, dims)
				blk := kernel.Pack(Q)

				want := make([]bool, nq)
				post := pointwise(t, dw, Q)
				for i, q := range Q {
					cls, err := Predict(dw, q)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = cls == ClassPositive
					if post[i] == 0.5 {
						half++
					}
					if math.IsNaN(post[i]) {
						nonFinitePoints++
					}
				}

				// Which points the rule settled, one at a time.
				settledAt := make([]int, nq)
				var one [1]bool
				for i := range Q {
					n, err := dw.BlockPositive(blk, i, i+1, one[:])
					if err != nil {
						t.Fatal(err)
					}
					if one[0] != want[i] {
						t.Fatalf("k=%d %s trial %d: point %d %v alone: BlockPositive %v, Predict %v (posterior %v)",
							k, sc.name, trial, i, Q[i], one[0], want[i], post[i])
					}
					if n == 1 && post[i] >= 0.5 {
						t.Fatalf("k=%d %s trial %d: the rule settled point %d %v, whose posterior is %v",
							k, sc.name, trial, i, Q[i], post[i])
					}
					settledAt[i] = n
				}
				sum := func(lo, hi int) (n int) {
					for _, s := range settledAt[lo:hi] {
						n += s
					}
					return n
				}

				lo, hi := 3, nq-2
				got := make([]bool, hi-lo)
				settled, err := dw.BlockPositive(blk, lo, hi, got)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[lo+i] {
						t.Fatalf("k=%d %s trial %d: point %d %v in [%d, %d): BlockPositive %v, Predict %v (posterior %v)",
							k, sc.name, trial, lo+i, Q[lo+i], lo, hi, got[i], want[lo+i], post[lo+i])
					}
				}
				if settled != sum(lo, hi) {
					t.Fatalf("k=%d %s trial %d: [%d, %d) settled %d points, one at a time %d", k, sc.name, trial, lo, hi, settled, sum(lo, hi))
				}

				all := make([]bool, nq)
				settled, err = BlockPredictInto(ctx, dw, blk, 0, nq, all)
				if err != nil {
					t.Fatal(err)
				}
				for i := range all {
					if all[i] != want[i] {
						t.Fatalf("k=%d %s trial %d: point %d %v: BlockPredictInto %v, Predict %v (posterior %v)",
							k, sc.name, trial, i, Q[i], all[i], want[i], post[i])
					}
				}
				if settled != sum(0, nq) {
					t.Fatalf("k=%d %s trial %d: BlockPredictInto settled %d points, one at a time %d", k, sc.name, trial, settled, sum(0, nq))
				}
				if sc.name == "non-finite-training-rows" && settled != 0 {
					t.Fatalf("k=%d trial %d: the rule settled %d points against a non-finite training row", k, trial, settled)
				}
				points += nq
				fired += settled
			}
		}
	}
	t.Logf("%d points, %d settled by the rule (%.1f%%), %d with posterior exactly 0.5, %d with a NaN posterior",
		points, fired, 100*float64(fired)/float64(points), half, nonFinitePoints)
	if fired*4 < points {
		t.Errorf("the rule settled %d of %d generated points; the test must reach it on at least a quarter", fired, points)
	}
	if half == 0 || nonFinitePoints == 0 {
		t.Errorf("no generated point has a posterior of exactly 0.5 (%d) or NaN (%d)", half, nonFinitePoints)
	}
}

// A classifier without BlockPositive decides by scoring: BlockPredictInto
// must give Predict's answer and report nothing settled.
func TestBlockPredictIntoFallsBackToPosteriors(t *testing.T) {
	Q := queryGrid(1100, 41)
	blk := kernel.Pack(Q)
	for name, m := range fittedModels(t) {
		got := make([]bool, len(Q)-5)
		settled, err := BlockPredictInto(context.Background(), m, blk, 5, len(Q), got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, decides := m.(BlockDecider); !decides && settled != 0 {
			t.Errorf("%s: %d points settled by a model that only scores", name, settled)
		}
		for i, q := range Q[5:] {
			cls, err := Predict(m, q)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != (cls == ClassPositive) {
				t.Fatalf("%s query %d: BlockPredictInto %v, Predict %d", name, 5+i, got[i], cls)
			}
		}
	}
	if _, err := BlockPredictInto(context.Background(), rowOnly{NewDWKNN(3, nil)}, blk, 0, len(Q), make([]bool, 9)); err == nil {
		t.Error("length mismatch accepted")
	}
	// The threshold itself: a query equidistant from one row of each class
	// has a posterior of exactly 0.5, which Predict calls positive.
	half := rowOnly{NewDWKNN(2, []float64{1})}
	if err := half.Fit([][]float64{{0}, {2}}, []int{ClassNegative, ClassPositive}); err != nil {
		t.Fatal(err)
	}
	mid := [][]float64{{1}}
	if p, err := half.PosteriorPositive(mid[0]); err != nil || p != 0.5 {
		t.Fatalf("midpoint posterior %v, %v; want exactly 0.5", p, err)
	}
	got := make([]bool, 1)
	if _, err := BlockPredictInto(context.Background(), half, kernel.Pack(mid), 0, 1, got); err != nil || !got[0] {
		t.Errorf("posterior 0.5: BlockPredictInto %v, %v; Predict says positive", got[0], err)
	}
}

// cancelingDecider cancels its context inside the first BlockPositive call.
type cancelingDecider struct {
	*DWKNN
	cancel context.CancelFunc
	calls  int
}

func (c *cancelingDecider) BlockPositive(blk *kernel.Block, lo, hi int, out []bool) (int, error) {
	c.calls++
	c.cancel()
	return c.DWKNN.BlockPositive(blk, lo, hi, out)
}

// A context cancelled mid-classification stops the decision pass at the
// next chunk boundary, for a decider and for a model that scores.
func TestBlockPredictIntoCanceled(t *testing.T) {
	Q := queryGrid(4*batchBlock, 43)
	blk := kernel.Pack(Q)
	ctx, cancel := context.WithCancel(context.Background())
	models := fittedModels(t)
	dec := &cancelingDecider{DWKNN: models["dwknn"].(*DWKNN), cancel: cancel}
	if _, err := BlockPredictInto(ctx, dec, blk, 0, len(Q), make([]bool, len(Q))); !errors.Is(err, context.Canceled) {
		t.Errorf("decider: want context.Canceled, got %v", err)
	}
	if dec.calls != 1 {
		t.Errorf("decider ran %d chunks after cancellation, want it to stop after the first", dec.calls-1)
	}
	if _, err := BlockPredictInto(ctx, models["fallback"], blk, 0, len(Q), make([]bool, len(Q))); !errors.Is(err, context.Canceled) {
		t.Errorf("scoring model: want context.Canceled, got %v", err)
	}
}
