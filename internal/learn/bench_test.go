package learn

import (
	"context"
	"math/rand"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
)

func benchFixture(b testing.TB, nTrain, nQuery, dims int) ([][]float64, []int, [][]float64) {
	rng := rand.New(rand.NewSource(77))
	X := make([][]float64, nTrain)
	y := make([]int, nTrain)
	for i := range X {
		row := make([]float64, dims)
		for d := range row {
			row[d] = rng.NormFloat64() * 3
		}
		X[i] = row
		y[i] = i % 2
	}
	Q := make([][]float64, nQuery)
	for i := range Q {
		q := make([]float64, dims)
		for d := range q {
			q[d] = rng.NormFloat64() * 3
		}
		Q[i] = q
	}
	return X, y, Q
}

func benchModels(b testing.TB, X [][]float64, y []int) map[string]Classifier {
	models := map[string]Classifier{
		"dwknn":    NewDWKNN(7, nil),
		"fallback": rowOnly{NewDWKNN(7, nil)},
	}
	for name, m := range models {
		if err := m.Fit(X, y); err != nil {
			b.Fatalf("fit %s: %v", name, err)
		}
	}
	return models
}

// BenchmarkBlockPosterior measures the columnar path per model over a
// packed block of the same queries.
func BenchmarkBlockPosterior(b *testing.B) {
	X, y, Q := benchFixture(b, 100, 512, 4)
	blk := kernel.Pack(Q)
	for name, m := range benchModels(b, X, y) {
		bm, ok := m.(BlockClassifier)
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			out := make([]float64, blk.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bm.BlockPosterior(blk, 0, blk.N, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(blk.N*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// Steady-state block scoring must not allocate: the scratch pools absorb
// per-call buffers after warmup. Averaged over runs so a stray GC clearing
// a pool cannot flake the assertion.
func TestBlockPosteriorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	X, y, Q := benchFixture(t, 100, 256, 4)
	blk := kernel.Pack(Q)
	out := make([]float64, len(Q))
	for name, m := range benchModels(t, X, y) {
		// Warm the pools.
		for i := 0; i < 3; i++ {
			if err := BlockPosteriorsInto(context.Background(), m, blk, 0, blk.N, out); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := BlockPosteriorsInto(context.Background(), m, blk, 0, blk.N, out); err != nil {
				t.Fatal(err)
			}
		})
		if avg >= 1 {
			t.Errorf("%s BlockPosteriorsInto: %.1f allocs/op, want amortized 0", name, avg)
		}
		// BlockPredictInto borrows the chunk of posteriors a classifier
		// that only scores needs from a pool (warmed by the first run,
		// which AllocsPerRun does not count).
		keep := make([]bool, len(Q))
		avg = testing.AllocsPerRun(50, func() {
			if _, err := BlockPredictInto(context.Background(), m, blk, 0, blk.N, keep); err != nil {
				t.Fatal(err)
			}
		})
		if avg >= 1 {
			t.Errorf("%s BlockPredictInto: %.1f allocs/op, want amortized 0", name, avg)
		}
		bd, ok := m.(BlockDecider)
		if !ok {
			continue
		}
		// The decision path shares the pooled scratch (warm by now); its
		// per-point state lives in it too.
		avg = testing.AllocsPerRun(50, func() {
			if _, err := bd.BlockPositive(blk, 0, blk.N, keep); err != nil {
				t.Fatal(err)
			}
		})
		if avg >= 1 {
			t.Errorf("%s BlockPositive: %.1f allocs/op, want amortized 0", name, avg)
		}
	}
}
