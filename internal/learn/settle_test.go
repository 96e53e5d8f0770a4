package learn

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

// prefixNeed is the prefix-minority rule's need vector as DESIGN.md §17
// derives it, unfolded: level j = 1 … ⌈k/2⌉ asks for min(j+1, k+1−j)
// negatives strictly nearer than the j-th nearest positive.
func prefixNeed(k int) []int {
	need := make([]int, (k+1)/2)
	for j := range need {
		need[j] = min(j+2, k-j)
	}
	return need
}

// foldNeed folds need into the kernel's levels: the last one the kernel
// holds takes the largest need from it on.
func foldNeed(need []int) []int {
	if len(need) <= kernel.MajorityLevels {
		return need
	}
	out := slices.Clone(need[:kernel.MajorityLevels])
	out[len(out)-1] = slices.Max(need[kernel.MajorityLevels-1:])
	return out
}

// meetsNeed decides the rule by its definition for one query against a
// fitted model, distances by the row path: the j-th smallest positive d²
// (+Inf past the last) against a count of the negative d² strictly below it.
func meetsNeed(dw *DWKNN, x []float64, need []int) bool {
	q := make([]float64, dw.dims)
	for d, v := range x {
		q[d] = v / dw.scales[d]
	}
	var pos, neg []float64
	for r, row := range dw.x {
		if d := sqDist(row, q); dw.y[r] == ClassPositive {
			pos = append(pos, d)
		} else {
			neg = append(neg, d)
		}
	}
	pos = slices.DeleteFunc(pos, math.IsNaN) // a NaN bounds nothing
	slices.Sort(pos)
	for j, n := range need {
		bound := math.Inf(1)
		if j < len(pos) {
			bound = pos[j]
		}
		count := 0
		for _, d := range neg {
			if d < bound {
				count++
			}
		}
		if count < n {
			return false
		}
	}
	return true
}

// settleScenarios are the label sets the prefix-minority rule must survive.
// Each returns the training set, its scales (nil: from the extent) and the
// queries.
var settleScenarios = []struct {
	name string
	gen  func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64)
}{
	{"lattice", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		X, y := latticeSet(rng, k+1+rng.Intn(30), dims)
		return X, y, nil, decideQueries(rng, X, 150, dims)
	}},
	{"fewer-rows-than-k", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		X, y := latticeSet(rng, 1+rng.Intn(k), dims)
		return X, y, nil, decideQueries(rng, X, 100, dims)
	}},
	{"ties-at-each-positive", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		// Around the centre c = (2, …, 2): the j-th positive at distance
		// j along the first axis, and at each level 0-2 negatives half a
		// unit nearer and 0-2 exactly as far, on the other side: the counts
		// straddle every need, and a tied negative must not count.
		var X [][]float64
		var y []int
		at := func(offset float64, label int) {
			row := make([]float64, dims)
			for d := range row {
				row[d] = 2
			}
			row[0] += offset
			X, y = append(X, row), append(y, label)
		}
		for j := 1; j <= (k+1)/2+1; j++ {
			at(float64(j), ClassPositive)
			for n := rng.Intn(3); n > 0; n-- {
				at(-float64(j)+0.5, ClassNegative)
			}
			for n := rng.Intn(3); n > 0; n-- {
				at(-float64(j), ClassNegative)
			}
		}
		Q := decideQueries(rng, X, 100, dims)
		for i := 1; i < 20; i++ {
			Q[i] = slices.Clone(Q[0])
			Q[i][rng.Intn(dims)] += float64(rng.Intn(5)-2) / 2
		}
		return X, y, nil, Q
	}},
	{"fewer-positives-than-levels", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		X, y := latticeSet(rng, k+1+rng.Intn(30), dims)
		for i := range y {
			y[i] = ClassNegative
		}
		for n := rng.Intn(3); n > 0; n-- {
			y[rng.Intn(len(y))] = ClassPositive
		}
		return X, y, nil, decideQueries(rng, X, 150, dims)
	}},
	{"fewer-negatives-than-need-1", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		X, y := latticeSet(rng, k+1+rng.Intn(20), dims)
		for i := range y {
			y[i] = ClassPositive
		}
		for n := rng.Intn(prefixNeed(k)[0]); n > 0; n-- {
			y[rng.Intn(len(y))] = ClassNegative
		}
		return X, y, nil, decideQueries(rng, X, 100, dims)
	}},
	{"overflow-to-inf", func(rng *rand.Rand, k, dims int) ([][]float64, []int, []float64, [][]float64) {
		// Unit scales and coordinates up to 1e154 apart: every training
		// row is finite, and the squared distances of far pairs are +Inf.
		X, y := latticeSet(rng, k+1+rng.Intn(30), dims)
		huge := func(row []float64) {
			for d := range row {
				if rng.Intn(2) == 0 {
					row[d] *= 1e154
				}
			}
		}
		for _, row := range X {
			huge(row)
		}
		Q := decideQueries(rng, X, 150, dims)
		for _, q := range Q[1:] {
			huge(q)
		}
		scales := make([]float64, dims)
		for d := range scales {
			scales[d] = 1
		}
		return X, y, scales, Q
	}},
}

// TestPrefixMinoritySettlesOnlyNegatives holds DWKNN's prefix-minority rule
// to its derivation, by brute force, for K = 1..16 — through effectiveK,
// which a set of fewer rows than K lowers. Every point the rule settles
// must have a negative Predict and a posterior at most 1/2 − 1/(2k) (or
// NaN); the unfolded rule, whose last levels the kernel does not hold, must
// keep that margin too; what BlockPositive settles must be exactly the
// folded rule; and BlockPredictInto must equal Predict point by point. It
// fails unless some settled point lacks ⌊k/2⌋ + 1 negatives before its
// nearest positive — the single-level rule the levels generalise — and
// unless some settled point has a +Inf distance among its neighbours.
func TestPrefixMinoritySettlesOnlyNegatives(t *testing.T) {
	ctx := context.Background()
	var points, settled, beyondMajority, infinite int
	for K := 1; K <= 16; K++ {
		for si, sc := range settleScenarios {
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(K*10000 + si*100 + trial)))
				dims := 1 + rng.Intn(6)
				X, y, scales, Q := sc.gen(rng, K, dims)
				dw := NewDWKNN(K, scales)
				if err := dw.Fit(X, y); err != nil {
					t.Fatalf("K=%d %s: Fit: %v", K, sc.name, err)
				}
				k := dw.effectiveK()
				need := prefixNeed(k)
				folded, majority := foldNeed(need), []int{k/2 + 1}
				margin := 0.5 - 1/(2*float64(k)) + 1e-12
				blk := kernel.Pack(Q)
				post := pointwise(t, dw, Q)
				var one [1]bool
				for i, q := range Q {
					cls, err := Predict(dw, q)
					if err != nil {
						t.Fatal(err)
					}
					n, err := dw.BlockPositive(blk, i, i+1, one[:])
					if err != nil {
						t.Fatal(err)
					}
					if one[0] != (cls == ClassPositive) {
						t.Fatalf("K=%d %s trial %d: point %d %v: BlockPositive %v, Predict %d", K, sc.name, trial, i, q, one[0], cls)
					}
					want := 0
					if dw.finite && meetsNeed(dw, q, folded) {
						want = 1
					}
					if n != want {
						t.Fatalf("K=%d (k=%d) %s trial %d: point %d %v: settled %d, the rule with need %v says %d (posterior %v)",
							K, k, sc.name, trial, i, q, n, folded, want, post[i])
					}
					if n == 1 && cls != ClassNegative {
						t.Fatalf("K=%d %s trial %d: point %d %v settled, Predict %d (posterior %v)", K, sc.name, trial, i, q, cls, post[i])
					}
					if dw.finite && meetsNeed(dw, q, need) && post[i] > margin {
						t.Fatalf("K=%d (k=%d) %s trial %d: point %d %v meets need %v, posterior %v above 1/2 − 1/(2k)",
							K, k, sc.name, trial, i, q, need, post[i])
					}
					if n == 1 && !meetsNeed(dw, q, majority) {
						beyondMajority++
					}
					if n == 1 && math.IsNaN(post[i]) {
						infinite++
					}
					settled += n
				}
				all := make([]bool, len(Q))
				if _, err := BlockPredictInto(ctx, dw, blk, 0, len(Q), all); err != nil {
					t.Fatal(err)
				}
				for i, q := range Q {
					cls, _ := Predict(dw, q)
					if all[i] != (cls == ClassPositive) {
						t.Fatalf("K=%d %s trial %d: point %d %v: BlockPredictInto %v, Predict %d", K, sc.name, trial, i, q, all[i], cls)
					}
				}
				points += len(Q)
			}
		}
	}
	t.Logf("%d points, %d settled, %d of them without ⌊k/2⌋+1 negatives before the nearest positive, %d with a NaN posterior from +Inf distances",
		points, settled, beyondMajority, infinite)
	if beyondMajority == 0 {
		t.Error("every settled point had a majority before its nearest positive: the later levels went untested")
	}
	if infinite == 0 {
		t.Error("no settled point had +Inf distances among its neighbours")
	}
}

// The settle order is laid out on the first decision after a Fit, by
// whichever of several concurrent callers comes first, and a Fit replaces
// it: deciding from four goroutines at once, after each of three fits of
// one model to different label sets, every caller gets Predict's answer.
func TestSettleOrderAcrossCallersAndFits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dw := NewDWKNN(7, []float64{1, 1, 1})
	for fit := 0; fit < 3; fit++ {
		X, y := latticeSet(rng, 30+10*fit, 3)
		if err := dw.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		Q := decideQueries(rng, X, 600, 3)
		blk := kernel.Pack(Q)
		want := make([]bool, len(Q))
		for i, q := range Q {
			cls, err := Predict(dw, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cls == ClassPositive
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]bool, len(Q))
				if _, err := dw.BlockPositive(blk, 0, len(Q), got); err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("fit %d: point %d %v: BlockPositive %v, Predict %v", fit, i, Q[i], got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
