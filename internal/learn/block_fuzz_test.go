package learn

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

// topK ranks query indices by the uncertainty-sampling comparator (higher
// uncertainty first, lower index breaking ties) — the same total order the
// core layer uses to pick the next region.
func topK(unc []float64, k int) []int {
	idx := make([]int, len(unc))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if unc[idx[a]] != unc[idx[b]] {
			return unc[idx[a]] > unc[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// FuzzBlockParity is the scoring-mode agreement property: for a random
// dataset and query block, DWKNN's columnar path, the row reconstruction
// a classifier without one falls back to (a DWKNN whose block methods are
// hidden), and the resumed scan of a NeighborTable must reproduce
// PosteriorPositive's posteriors bit for bit, and therefore the identical
// top-k selection; and the decision through BlockPredictInto (DWKNN's
// majority rule, the fallback's scored comparison) must be Predict's. Query sets deliberately include duplicates (degenerate
// equidistant neighborhoods) and exact copies of training rows.
func FuzzBlockParity(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint16(300))
	f.Add(int64(42), uint8(7), uint8(5), uint16(1))
	f.Add(int64(99), uint8(60), uint8(3), uint16(513))
	f.Add(int64(7), uint8(4), uint8(0), uint16(17))
	f.Fuzz(func(t *testing.T, seed int64, nTrainRaw, dimsRaw uint8, nqRaw uint16) {
		dims := 1 + int(dimsRaw)%6
		nTrain := 6 + int(nTrainRaw)%60
		nq := 1 + int(nqRaw)%700
		rng := rand.New(rand.NewSource(seed))

		X := make([][]float64, nTrain)
		y := make([]int, nTrain)
		for i := range X {
			row := make([]float64, dims)
			for d := range row {
				row[d] = rng.NormFloat64() * 3
			}
			X[i] = row
			y[i] = rng.Intn(2)
		}
		// Both classes must appear.
		y[0], y[1] = 0, 1
		scales := make([]float64, dims)
		for d := range scales {
			scales[d] = 0.25 + rng.Float64()*4
		}

		models := map[string]Classifier{
			"dwknn":    NewDWKNN(5, scales),
			"fallback": rowOnly{NewDWKNN(3+int(seed&3), nil)},
		}
		for name, m := range models {
			if err := m.Fit(X, y); err != nil {
				t.Fatalf("fit %s: %v", name, err)
			}
		}

		Q := make([][]float64, nq)
		for i := range Q {
			switch {
			case i > 0 && rng.Intn(8) == 0:
				// Duplicate an earlier query: equidistant/tied neighborhoods.
				Q[i] = Q[rng.Intn(i)]
			case rng.Intn(8) == 0:
				// Exact training row: zero distance to a labeled point.
				Q[i] = X[rng.Intn(nTrain)]
			default:
				q := make([]float64, dims)
				for d := range q {
					q[d] = rng.NormFloat64() * 4
				}
				Q[i] = q
			}
		}
		blk := kernel.Pack(Q)
		ctx := context.Background()

		for name, m := range models {
			want := pointwise(t, m, Q)
			got := make([]float64, nq)
			if err := BlockPosteriorsInto(ctx, m, blk, 0, nq, got); err != nil {
				t.Fatalf("%s block: %v", name, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s query %d: block %v != row %v", name, i, got[i], want[i])
				}
			}
			dec := make([]bool, nq)
			if _, err := BlockPredictInto(ctx, m, blk, 0, nq, dec); err != nil {
				t.Fatalf("%s decide: %v", name, err)
			}
			for i, q := range Q {
				if cls, err := Predict(m, q); err != nil || dec[i] != (cls == ClassPositive) {
					t.Fatalf("%s query %d (posterior %v): block decision %v, Predict %d, %v", name, i, want[i], dec[i], cls, err)
				}
			}
			wantU := make([]float64, nq)
			gotU := make([]float64, nq)
			for i := range want {
				wantU[i] = math.Min(want[i], 1-want[i])
				gotU[i] = math.Min(got[i], 1-got[i])
			}
			wt, gt := topK(wantU, 5), topK(gotU, 5)
			for i := range wt {
				if wt[i] != gt[i] {
					t.Fatalf("%s: top-k rank %d differs: row %d vs block %d", name, i, wt[i], gt[i])
				}
			}
		}

		// DWKNN mode 3: the resumed scan. Score the block under an
		// append-only predecessor through a NeighborTable, then under the
		// current model: every carried posterior must equal a from-scratch
		// pass bit for bit, whether or not its list changed.
		nOld := nTrain - 1 - rng.Intn(4)
		if nOld >= 2 {
			old := NewDWKNN(5, scales)
			if err := old.Fit(X[:nOld], y[:nOld]); err != nil {
				t.Fatal(err)
			}
			cur := models["dwknn"].(*DWKNN)
			var tab NeighborTable
			row := make([]float64, dims)
			for _, m := range []*DWKNN{old, cur} {
				if err := tab.Begin(m, nq); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < nq; i++ {
					got, err := tab.Posterior(uint32(i), blk.Row(i, row))
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.PosteriorPositive(Q[i])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("resumed query %d at %d rows: table %v != scratch %v", i, len(m.x), got, want)
					}
				}
				tab.End(true)
			}
			if pass := tab.pass; pass.Carried != nq || pass.Scanned != 0 {
				t.Fatalf("append-only refit (%d -> %d rows) carried %d of %d lists, scanned %d", nOld, nTrain, pass.Carried, nq, pass.Scanned)
			}
		}
	})
}
