// Package learn provides the machine-learning substrate for UEI: binary
// probabilistic classifiers usable with uncertainty sampling. The paper's
// evaluation uses the dual weighted k-nearest-neighbor classifier (DWKNN,
// Gou et al. 2012) as the uncertainty estimator; Gaussian naive Bayes and
// logistic regression are provided as alternative probability-based models
// (§3: UEI "can be used in conjunction with any probabilistic-based
// classifiers").
package learn

import (
	"errors"
	"fmt"
)

// Binary class labels. The package is deliberately independent of the
// oracle package; the IDE layer converts between the two.
const (
	// ClassNegative is the irrelevant class (0).
	ClassNegative = 0
	// ClassPositive is the relevant class (1).
	ClassPositive = 1
)

// ErrNotFitted is returned by predictions on a classifier that has not been
// successfully fitted yet.
var ErrNotFitted = errors.New("learn: classifier is not fitted")

// Classifier is a binary probabilistic model. Fit must be called from a
// single goroutine; after a successful Fit, PosteriorPositive must be
// read-only with respect to the model, because the parallel scorer shards
// query points across goroutines against one shared classifier. (All
// classifiers in this package comply.) PosteriorPositive is the
// specification; a model's bulk forms, when it has them, are
// BlockClassifier and BlockDecider and must match it bit for bit.
type Classifier interface {
	// Fit (re)trains the model on the labeled set. X rows are copied or
	// retained read-only; y[i] must be ClassNegative or ClassPositive, and
	// both classes should be present for meaningful probabilities.
	Fit(X [][]float64, y []int) error
	// PosteriorPositive returns P(y = ClassPositive | x) in [0, 1].
	PosteriorPositive(x []float64) (float64, error)
	// Fitted reports whether the model has been trained.
	Fitted() bool
}

// positive is the decision threshold, written here once: a posterior of at
// least 0.5 predicts the positive class, and a NaN posterior does not.
func positive(p float64) bool { return p >= 0.5 }

// Predict applies the 0.5 decision threshold to the positive posterior.
func Predict(c Classifier, x []float64) (int, error) {
	p, err := c.PosteriorPositive(x)
	if err != nil {
		return 0, err
	}
	if positive(p) {
		return ClassPositive, nil
	}
	return ClassNegative, nil
}

// Uncertainty returns the least-confidence uncertainty of Eq. (1):
// u(x) = 1 - p(ŷ|x) where ŷ is the predicted class. For a binary model it
// equals min(p, 1-p) and peaks at 0.5 when p = 0.5, matching §3.2's "a value
// that equal to 50% being the most uncertain".
func Uncertainty(c Classifier, x []float64) (float64, error) {
	p, err := c.PosteriorPositive(x)
	if err != nil {
		return 0, err
	}
	if p > 0.5 {
		return 1 - p, nil
	}
	return p, nil
}

// checkTrainingSet validates the common Fit preconditions shared by all
// classifiers in this package.
func checkTrainingSet(X [][]float64, y []int) (dims int, err error) {
	if len(X) == 0 {
		return 0, fmt.Errorf("learn: empty training set")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("learn: %d examples but %d labels", len(X), len(y))
	}
	dims = len(X[0])
	if dims == 0 {
		return 0, fmt.Errorf("learn: zero-dimensional examples")
	}
	for i, row := range X {
		if len(row) != dims {
			return 0, fmt.Errorf("learn: example %d has %d dims, want %d", i, len(row), dims)
		}
	}
	for i, label := range y {
		if label != ClassNegative && label != ClassPositive {
			return 0, fmt.Errorf("learn: label %d of example %d is not binary", label, i)
		}
	}
	return dims, nil
}

// clampProb forces numeric noise back into [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
