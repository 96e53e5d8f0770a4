package al

import (
	"math"

	"github.com/uei-db/uei/internal/learn"
)

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

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
