package learn

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/uei-db/uei/internal/kernel"
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

// pointwise is the reference every bulk form is held to: one
// PosteriorPositive call per row.
func pointwise(t testing.TB, m Classifier, X [][]float64) []float64 {
	t.Helper()
	out := make([]float64, len(X))
	for i, x := range X {
		p, err := m.PosteriorPositive(x)
		if err != nil {
			t.Fatalf("PosteriorPositive(query %d): %v", i, err)
		}
		out[i] = p
	}
	return out
}

// TestBatchPosteriorMatchesPointwise holds DWKNN.BatchPosterior — kept only
// because the benchmark times it — to the pointwise form, bit for bit, for
// as long as it exists.
func TestBatchPosteriorMatchesPointwise(t *testing.T) {
	X := queryGrid(1000, 11)
	dw := fittedModels(t)["dwknn"].(*DWKNN)
	got := make([]float64, len(X))
	if err := dw.BatchPosterior(X, got); err != nil {
		t.Fatal(err)
	}
	for i, want := range pointwise(t, dw, X) {
		if got[i] != want {
			t.Fatalf("query %d: batch %v != pointwise %v", i, got[i], want)
		}
	}
}

// TestUncertaintiesFoldsPosterior checks BlockUncertaintiesInto's
// min(p, 1-p) against Uncertainty, row by row.
func TestUncertaintiesFoldsPosterior(t *testing.T) {
	X := queryGrid(500, 17)
	m := fittedModels(t)["dwknn"]
	unc := make([]float64, len(X))
	if err := BlockUncertaintiesInto(context.Background(), m, kernel.Pack(X), 0, len(X), unc); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		want, err := Uncertainty(m, x)
		if err != nil {
			t.Fatal(err)
		}
		if unc[i] != want {
			t.Fatalf("slot %d: block uncertainty %v, pointwise %v", i, unc[i], want)
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
	if err := BlockPosteriorsInto(ctx, m, kernel.Pack(X), 0, len(X), out); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestBatchUnfitted: the block path must surface ErrNotFitted like the
// pointwise path does.
func TestBatchUnfitted(t *testing.T) {
	X := queryGrid(10, 23)
	out := make([]float64, len(X))
	err := BlockPosteriorsInto(context.Background(), NewGaussianNB(), kernel.Pack(X), 0, len(X), out)
	if !errors.Is(err, ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}

// TestBatchLengthMismatch rejects out slices of the wrong size.
func TestBatchLengthMismatch(t *testing.T) {
	m := fittedModels(t)["dwknn"]
	X := queryGrid(10, 29)
	if err := BlockPosteriorsInto(context.Background(), m, kernel.Pack(X), 0, len(X), make([]float64, 9)); err == nil {
		t.Error("length mismatch accepted")
	}
}
