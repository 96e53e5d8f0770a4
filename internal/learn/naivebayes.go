package learn

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/kernel"
)

// GaussianNB is a Gaussian naive Bayes binary classifier: each class models
// each attribute as an independent normal distribution. It is one of the
// "probability-based predictive models (e.g., Naive Bayes, SVM, etc.)" the
// paper names as compatible with uncertainty sampling (§2.1).
type GaussianNB struct {
	// VarSmoothing is added to every per-dimension variance to keep
	// likelihoods finite on degenerate attributes. NewGaussianNB defaults
	// it to 1e-9 times the largest feature variance, recomputed per fit.
	VarSmoothing float64

	dims     int
	mean     [2][]float64
	variance [2][]float64
	logPrior [2]float64
	fitted   bool
}

// NewGaussianNB returns a GaussianNB with default smoothing.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Fit estimates per-class feature means, variances, and class priors.
func (c *GaussianNB) Fit(X [][]float64, y []int) error {
	dims, err := checkTrainingSet(X, y)
	if err != nil {
		return err
	}
	var count [2]int
	for _, label := range y {
		count[label]++
	}
	if count[0] == 0 || count[1] == 0 {
		return fmt.Errorf("learn: GaussianNB needs both classes present (have %d negative, %d positive)", count[0], count[1])
	}

	var mean, variance [2][]float64
	for cls := 0; cls < 2; cls++ {
		mean[cls] = make([]float64, dims)
		variance[cls] = make([]float64, dims)
	}
	for i, row := range X {
		cls := y[i]
		for j, v := range row {
			mean[cls][j] += v
		}
	}
	for cls := 0; cls < 2; cls++ {
		for j := range mean[cls] {
			mean[cls][j] /= float64(count[cls])
		}
	}
	for i, row := range X {
		cls := y[i]
		for j, v := range row {
			d := v - mean[cls][j]
			variance[cls][j] += d * d
		}
	}
	maxVar := 0.0
	for cls := 0; cls < 2; cls++ {
		for j := range variance[cls] {
			variance[cls][j] /= float64(count[cls])
			if variance[cls][j] > maxVar {
				maxVar = variance[cls][j]
			}
		}
	}
	smoothing := c.VarSmoothing
	if smoothing <= 0 {
		smoothing = 1e-9 * maxVar
		if smoothing <= 0 {
			smoothing = 1e-9
		}
	}
	for cls := 0; cls < 2; cls++ {
		for j := range variance[cls] {
			variance[cls][j] += smoothing
		}
	}

	c.dims = dims
	c.mean = mean
	c.variance = variance
	total := float64(len(y))
	c.logPrior[0] = math.Log(float64(count[0]) / total)
	c.logPrior[1] = math.Log(float64(count[1]) / total)
	c.fitted = true
	return nil
}

// Fitted reports whether Fit has succeeded.
func (c *GaussianNB) Fitted() bool { return c.fitted }

// PosteriorPositive computes P(positive|x) via Bayes' rule in log space.
func (c *GaussianNB) PosteriorPositive(x []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != c.dims {
		return 0, fmt.Errorf("learn: query has %d dims, model has %d", len(x), c.dims)
	}
	var logLik [2]float64
	for cls := 0; cls < 2; cls++ {
		ll := c.logPrior[cls]
		for j, v := range x {
			variance := c.variance[cls][j]
			d := v - c.mean[cls][j]
			ll += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
		}
		logLik[cls] = ll
	}
	// Softmax over two log-likelihoods, stabilized by the max.
	m := math.Max(logLik[0], logLik[1])
	e0 := math.Exp(logLik[0] - m)
	e1 := math.Exp(logLik[1] - m)
	return clampProb(e1 / (e0 + e1)), nil
}

// BlockPosterior implements BlockClassifier: per-class log-likelihood
// strips over the block's columns. The per-dimension term precomputes
// -0.5·log(2π·var) and 2·var once per (class, dimension) — pure functions
// of the variance, so every per-point add is the scalar path's expression
// bit for bit — and accumulates in ascending dimension order.
func (c *GaussianNB) BlockPosterior(blk *kernel.Block, lo, hi int, out []float64) error {
	if !c.fitted {
		return ErrNotFitted
	}
	if blk.Dims != c.dims {
		return fmt.Errorf("learn: block has %d dims, model has %d", blk.Dims, c.dims)
	}
	const strip = 512
	var llBuf [2][strip]float64
	for base := lo; base < hi; base += strip {
		w := hi - base
		if w > strip {
			w = strip
		}
		for cls := 0; cls < 2; cls++ {
			ll := llBuf[cls][:w]
			for i := range ll {
				ll[i] = c.logPrior[cls]
			}
			for j := 0; j < c.dims; j++ {
				variance := c.variance[cls][j]
				logTerm := -0.5 * math.Log(2*math.Pi*variance)
				kernel.AddGaussianLL(ll, blk.Col(j)[base:base+w], c.mean[cls][j], logTerm, 2*variance)
			}
		}
		// Softmax over two log-likelihoods, stabilized by the max.
		dst := out[base-lo : base-lo+w]
		for i := 0; i < w; i++ {
			m := math.Max(llBuf[0][i], llBuf[1][i])
			e0 := math.Exp(llBuf[0][i] - m)
			e1 := math.Exp(llBuf[1][i] - m)
			dst[i] = clampProb(e1 / (e0 + e1))
		}
	}
	return nil
}
