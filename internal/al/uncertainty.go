package al

import (
	"context"
	"math"

	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
)

// BatchScorer is a Scorer with a vectorized path over an in-memory
// candidate matrix. The engine uses it when the pool is resident (the UEI
// scheme keeps it in the cache anyway) to score all candidates with one
// batched, parallel posterior sweep instead of one model call per row.
// BatchScore must produce exactly the scores Score would, slot for slot.
type BatchScorer interface {
	Scorer
	// BatchScore fills out[i] with Score(m, X[i]) using up to workers
	// goroutines; ctx cancels mid-sweep.
	BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error
}

// blockSweepMin is the candidate count above which the batch sweep packs
// the matrix into a column block for the kernel scoring path: below it
// the pack copy would rival the model work it saves.
const blockSweepMin = 256

// batchPosteriors runs the shared posterior sweep behind the uncertainty
// variants' BatchScore implementations. Models with a columnar path score
// through a packed block (bit-identical to the row path); everything else
// takes the row sweep.
func batchPosteriors(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	if _, ok := m.(learn.BlockClassifier); ok && len(X) >= blockSweepMin {
		return learn.BlockPosteriors(ctx, m, kernel.Pack(X), out, workers)
	}
	return learn.Posteriors(ctx, m, X, out, workers)
}

// LeastConfidence is Eq. (1) of the paper, u(x) = 1 - p(ŷ|x): the
// uncertainty-sampling variant UEI is built around. For a binary model the
// score equals min(p, 1-p) and is maximized at p = 0.5.
type LeastConfidence struct{}

// Name implements Scorer.
func (LeastConfidence) Name() string { return "least-confidence" }

// Score implements Scorer.
func (LeastConfidence) Score(m learn.Classifier, x []float64) (float64, error) {
	return learn.Uncertainty(m, x)
}

// BatchScore implements BatchScorer.
func (LeastConfidence) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	if err := batchPosteriors(ctx, m, X, out, workers); err != nil {
		return err
	}
	for i, p := range out {
		if p > 0.5 {
			out[i] = 1 - p
		}
	}
	return nil
}

// Margin scores by the (negated) margin between the two class posteriors:
// 1 - |p(+|x) - p(-|x)|. For binary classifiers it ranks candidates exactly
// like least confidence but on a different scale; it is provided for parity
// with the uncertainty-sampling literature surveyed in [20].
type Margin struct{}

// Name implements Scorer.
func (Margin) Name() string { return "margin" }

// Score implements Scorer.
func (Margin) Score(m learn.Classifier, x []float64) (float64, error) {
	p, err := m.PosteriorPositive(x)
	if err != nil {
		return 0, err
	}
	return 1 - math.Abs(2*p-1), nil
}

// BatchScore implements BatchScorer.
func (Margin) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	if err := batchPosteriors(ctx, m, X, out, workers); err != nil {
		return err
	}
	for i, p := range out {
		out[i] = 1 - math.Abs(2*p-1)
	}
	return nil
}

// Entropy scores by the Shannon entropy of the posterior distribution,
// H(p) = -p log p - (1-p) log (1-p), in nats.
type Entropy struct{}

// Name implements Scorer.
func (Entropy) Name() string { return "entropy" }

// Score implements Scorer.
func (Entropy) Score(m learn.Classifier, x []float64) (float64, error) {
	p, err := m.PosteriorPositive(x)
	if err != nil {
		return 0, err
	}
	return binaryEntropy(p), nil
}

// BatchScore implements BatchScorer.
func (Entropy) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	if err := batchPosteriors(ctx, m, X, out, workers); err != nil {
		return err
	}
	for i, p := range out {
		out[i] = binaryEntropy(p)
	}
	return nil
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
