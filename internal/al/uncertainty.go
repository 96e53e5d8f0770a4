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

// PosteriorScorer is a Scorer whose score is a function of the positive
// posterior alone — the three uncertainty-sampling variants. A caller that
// already holds the posterior (the engine's neighbour table keeps every pool
// row's) scores without a model call; FromPosterior(p) must equal Score on
// a row whose posterior is p, bit for bit.
type PosteriorScorer interface {
	Scorer
	FromPosterior(p float64) float64
}

// scoreOne is Score for a PosteriorScorer.
func scoreOne(s PosteriorScorer, m learn.Classifier, x []float64) (float64, error) {
	p, err := m.PosteriorPositive(x)
	if err != nil {
		return 0, err
	}
	return s.FromPosterior(p), nil
}

// batchScore is BatchScore for a PosteriorScorer: the shared posterior sweep,
// then the strategy's fold over it.
func batchScore(ctx context.Context, s PosteriorScorer, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	if err := batchPosteriors(ctx, m, X, out, workers); err != nil {
		return err
	}
	for i, p := range out {
		out[i] = s.FromPosterior(p)
	}
	return nil
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

// FromPosterior implements PosteriorScorer (learn.Uncertainty's fold).
func (LeastConfidence) FromPosterior(p float64) float64 {
	if p > 0.5 {
		return 1 - p
	}
	return p
}

// BatchScore implements BatchScorer.
func (s LeastConfidence) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	return batchScore(ctx, s, m, X, out, workers)
}

// Margin scores by the (negated) margin between the two class posteriors:
// 1 - |p(+|x) - p(-|x)|. For binary classifiers it ranks candidates exactly
// like least confidence but on a different scale; it is provided for parity
// with the uncertainty-sampling literature surveyed in [20].
type Margin struct{}

// Name implements Scorer.
func (Margin) Name() string { return "margin" }

// Score implements Scorer.
func (s Margin) Score(m learn.Classifier, x []float64) (float64, error) {
	return scoreOne(s, m, x)
}

// FromPosterior implements PosteriorScorer.
func (Margin) FromPosterior(p float64) float64 { return 1 - math.Abs(2*p-1) }

// BatchScore implements BatchScorer.
func (s Margin) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	return batchScore(ctx, s, m, X, out, workers)
}

// Entropy scores by the Shannon entropy of the posterior distribution,
// H(p) = -p log p - (1-p) log (1-p), in nats.
type Entropy struct{}

// Name implements Scorer.
func (Entropy) Name() string { return "entropy" }

// Score implements Scorer.
func (s Entropy) Score(m learn.Classifier, x []float64) (float64, error) {
	return scoreOne(s, m, x)
}

// FromPosterior implements PosteriorScorer.
func (Entropy) FromPosterior(p float64) float64 { return binaryEntropy(p) }

// BatchScore implements BatchScorer.
func (s Entropy) BatchScore(ctx context.Context, m learn.Classifier, X [][]float64, out []float64, workers int) error {
	return batchScore(ctx, s, m, X, out, workers)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
