package learn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// fittedModels returns every classifier in the package, trained on the same
// box-shaped concept.
func fittedModels(t *testing.T) map[string]Classifier {
	t.Helper()
	X, y := boxTrainingSet(300, 7)
	qbc, err := NewCommittee(3, 31, func(i int) Classifier { return NewDWKNN(3+2*i, nil) })
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Classifier{
		"dwknn":     NewDWKNN(7, nil),
		"gnb":       NewGaussianNB(),
		"logistic":  NewLogistic(37),
		"committee": qbc,
	}
	for name, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
	}
	return models
}

func queryGrid(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	return X
}

// TestBatchPosteriorMatchesPointwise is the batch-path contract: for every
// classifier, BatchPosterior must return bit-identical posteriors to a loop
// over PosteriorPositive. The parallel scorer's determinism rests on this.
func TestBatchPosteriorMatchesPointwise(t *testing.T) {
	X := queryGrid(1000, 11)
	for name, m := range fittedModels(t) {
		bc, ok := m.(BatchClassifier)
		if !ok {
			t.Errorf("%s does not implement BatchClassifier", name)
			continue
		}
		got := make([]float64, len(X))
		if err := bc.BatchPosterior(X, got); err != nil {
			t.Fatalf("%s: BatchPosterior: %v", name, err)
		}
		for i, x := range X {
			want, err := m.PosteriorPositive(x)
			if err != nil {
				t.Fatalf("%s: PosteriorPositive: %v", name, err)
			}
			if got[i] != want {
				t.Fatalf("%s: query %d: batch %v != pointwise %v", name, i, got[i], want)
			}
		}
	}
}

// TestPosteriorsParallelParity: Posteriors with 1, 4, and 8 workers must be
// bit-identical — contiguous shards write disjoint slots of the same slice.
func TestPosteriorsParallelParity(t *testing.T) {
	X := queryGrid(2000, 13)
	ctx := context.Background()
	for name, m := range fittedModels(t) {
		serial := make([]float64, len(X))
		if err := Posteriors(ctx, m, X, serial, 1); err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, w := range []int{4, 8} {
			par := make([]float64, len(X))
			if err := Posteriors(ctx, m, X, par, w); err != nil {
				t.Fatalf("%s: workers=%d: %v", name, w, err)
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("%s: workers=%d: slot %d: %v != %v", name, w, i, par[i], serial[i])
				}
			}
		}
	}
}

// TestUncertaintiesFoldsPosterior checks UncertaintiesInto's min(p, 1-p)
// against Posteriors.
func TestUncertaintiesFoldsPosterior(t *testing.T) {
	X := queryGrid(500, 17)
	ctx := context.Background()
	m := fittedModels(t)["dwknn"]
	post := make([]float64, len(X))
	unc := make([]float64, len(X))
	if err := Posteriors(ctx, m, X, post, 4); err != nil {
		t.Fatal(err)
	}
	if err := UncertaintiesInto(ctx, m, X, unc); err != nil {
		t.Fatal(err)
	}
	for i, p := range post {
		want := p
		if p > 0.5 {
			want = 1 - p
		}
		if unc[i] != want {
			t.Fatalf("slot %d: uncertainty %v, posterior %v", i, unc[i], p)
		}
	}
}

// TestBatchCanceledContext: a pre-canceled context must surface as
// context.Canceled before any scoring happens.
func TestBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := fittedModels(t)["gnb"]
	X := queryGrid(600, 19)
	out := make([]float64, len(X))
	if err := Posteriors(ctx, m, X, out, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestBatchUnfitted: the batch path must wrap ErrNotFitted like the
// pointwise path does.
func TestBatchUnfitted(t *testing.T) {
	X := queryGrid(10, 23)
	out := make([]float64, len(X))
	err := Posteriors(context.Background(), NewGaussianNB(), X, out, 2)
	if !errors.Is(err, ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}

// TestBatchLengthMismatch rejects out slices of the wrong size.
func TestBatchLengthMismatch(t *testing.T) {
	m := fittedModels(t)["dwknn"]
	X := queryGrid(10, 29)
	if err := Posteriors(context.Background(), m, X, make([]float64, 9), 2); err == nil {
		t.Error("length mismatch accepted")
	}
}
