// Package metrics provides the measurement substrate for the experiments:
// the F-measure the paper uses as its accuracy metric (Table 1) and labeled
// experiment series for the accuracy figures. Response times are
// summarized by obs.Samples.
package metrics

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TruePositive  int
	FalsePositive int
	TrueNegative  int
	FalseNegative int
}

// Observe records one prediction/truth pair.
func (c *Confusion) Observe(predictedPositive, actuallyPositive bool) {
	switch {
	case predictedPositive && actuallyPositive:
		c.TruePositive++
	case predictedPositive && !actuallyPositive:
		c.FalsePositive++
	case !predictedPositive && actuallyPositive:
		c.FalseNegative++
	default:
		c.TrueNegative++
	}
}

// Precision returns TP / (TP + FP), or 0 when nothing was predicted
// positive.
func (c Confusion) Precision() float64 {
	d := c.TruePositive + c.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(c.TruePositive) / float64(d)
}

// Recall returns TP / (TP + FN), or 0 when nothing is actually positive.
func (c Confusion) Recall() float64 {
	d := c.TruePositive + c.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(c.TruePositive) / float64(d)
}

// F1 returns the harmonic mean of precision and recall — the paper's
// "F-Measure (Accuracy)" performance measurement.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly for logs.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d f1=%.3f", c.TruePositive, c.FalsePositive, c.TrueNegative, c.FalseNegative, c.F1())
}
