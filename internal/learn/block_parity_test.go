package learn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

func parityModels(t *testing.T, rng *rand.Rand, n, dims int) map[string]Classifier {
	t.Helper()
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, dims)
		for d := range row {
			row[d] = rng.NormFloat64() * 3
		}
		X[i] = row
		y[i] = i % 2
	}
	scales := make([]float64, dims)
	for d := range scales {
		scales[d] = 0.5 + rng.Float64()*4
	}
	com, err := NewCommittee(3, 7, func(i int) Classifier { return NewDWKNN(3+i, nil) })
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Classifier{
		"dwknn":      NewDWKNN(7, scales),
		"dwknn-auto": NewDWKNN(5, nil),
		"logistic":   NewLogistic(11),
		"gnb":        NewGaussianNB(),
		"committee":  com,
	}
	for name, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("fit %s: %v", name, err)
		}
	}
	return models
}

// Every model's block path must agree bit-for-bit with PosteriorPositive, on
// query counts that exercise strip boundaries and unroll tails.
func TestBlockPosteriorBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, nq := range []int{1, 3, 511, 512, 513, 1100} {
		models := parityModels(t, rng, 60, 4)
		Q := make([][]float64, nq)
		for i := range Q {
			q := make([]float64, 4)
			for d := range q {
				q[d] = rng.NormFloat64() * 5
			}
			Q[i] = q
		}
		blk := kernel.Pack(Q)
		for name, m := range models {
			want := pointwise(t, m, Q)
			got := make([]float64, nq)
			if err := BlockPosteriorsInto(context.Background(), m, blk, 0, nq, got); err != nil {
				t.Fatalf("%s block: %v", name, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s nq=%d query %d: block %v != row %v", name, nq, i, got[i], want[i])
				}
			}
			// Sub-range scoring must agree with the full pass.
			if nq > 10 {
				lo, hi := 3, nq-2
				sub := make([]float64, hi-lo)
				if err := BlockPosteriorsInto(context.Background(), m, blk, lo, hi, sub); err != nil {
					t.Fatalf("%s sub: %v", name, err)
				}
				for i := range sub {
					if math.Float64bits(sub[i]) != math.Float64bits(want[lo+i]) {
						t.Fatalf("%s sub-range query %d mismatch", name, lo+i)
					}
				}
			}
		}
	}
}

// The degenerate all-equidistant DWKNN weight case (dk == d1 forces unit
// weights) and tiny training sets (k clamped to len(x)) must survive the
// block path.
func TestBlockPosteriorDegenerateDWKNN(t *testing.T) {
	// All training points on a unit circle; queries at the center are
	// exactly equidistant from every one of them.
	n := 8
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := 2 * math.Pi * float64(i) / float64(n)
		X[i] = []float64{math.Cos(a), math.Sin(a)}
		y[i] = i % 2
	}
	for _, k := range []int{3, 7, 20} { // 20 > n: k clamps to len(x)
		dw := NewDWKNN(k, []float64{1, 1})
		if err := dw.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		Q := [][]float64{{0, 0}, {0.001, 0}, {0, 0}, {5, 5}}
		blk := kernel.Pack(Q)
		want := pointwise(t, dw, Q)
		got := make([]float64, len(Q))
		if err := dw.BlockPosterior(blk, 0, len(Q), got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d query %d: %v != %v", k, i, got[i], want[i])
			}
		}
	}
}
