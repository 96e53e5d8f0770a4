package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// figureNumber maps a region class to its accuracy-figure number in the
// paper.
func figureNumber(class oracle.SizeClass) int {
	switch class {
	case oracle.Small:
		return 3
	case oracle.Medium:
		return 4
	default:
		return 5
	}
}

// FormatAccuracyFigure renders one of Figures 3-5: the mean F-measure
// curve of both schemes against the number of labeled examples, plus the
// user-effort comparison the paper's §4.2 discussion makes (labels to
// reach 70% and 80% accuracy).
func FormatAccuracyFigure(res *ComparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: UEI Accuracy (%s Target Region, %s)\n",
		figureNumber(res.Class), strings.Title(string(res.Class)), cardinalityLabel(res.Class))
	b.WriteString(metrics.FormatTable("labels", "%.3f", res.UEI.Accuracy, res.DBMS.Accuracy))
	fmt.Fprintf(&b, "labels to reach F1>=0.70:  UEI %s, DBMS %s\n",
		labelsToReach(res.UEI.Accuracy, 0.70), labelsToReach(res.DBMS.Accuracy, 0.70))
	fmt.Fprintf(&b, "labels to reach F1>=0.80:  UEI %s, DBMS %s\n",
		labelsToReach(res.UEI.Accuracy, 0.80), labelsToReach(res.DBMS.Accuracy, 0.80))
	fmt.Fprintf(&b, "final F1:                  UEI %.3f, DBMS %.3f\n", res.UEI.FinalF1, res.DBMS.FinalF1)
	return b.String()
}

func cardinalityLabel(class oracle.SizeClass) string {
	f, err := class.Fraction()
	if err != nil {
		return "?"
	}
	return fmt.Sprintf("%.1f%% of dataset", f*100)
}

// FormatResponseTimeFigure renders Figure 6: mean per-iteration response
// time of both schemes across the three region classes, the resulting
// speedup, and the fraction of iterations meeting the 500 ms interactivity
// bound.
func FormatResponseTimeFigure(results []*ComparisonResult) string {
	var b strings.Builder
	b.WriteString("Figure 6: UEI Response Time (per exploration iteration)\n")
	fmt.Fprintf(&b, "  %-8s %14s %14s %9s %12s %12s %16s\n",
		"region", "UEI mean", "DBMS mean", "speedup", "UEI p95", "DBMS p95", "UEI <500ms frac")
	for _, r := range results {
		uei, dbms := r.UEI.Latency, r.DBMS.Latency
		speedup := 0.0
		if uei.Mean() > 0 {
			speedup = float64(dbms.Mean()) / float64(uei.Mean())
		}
		fmt.Fprintf(&b, "  %-8s %14s %14s %8.1fx %12s %12s %16.2f\n",
			r.Class,
			uei.Mean().Round(time.Microsecond),
			dbms.Mean().Round(time.Microsecond),
			speedup,
			uei.Quantile(0.95).Round(time.Microsecond),
			dbms.Quantile(0.95).Round(time.Microsecond),
			uei.FractionWithin(obs.DefaultSLOBudget))
	}
	b.WriteString("  (I/O volume per iteration)\n")
	for _, r := range results {
		ratio := 0.0
		if r.UEI.BytesReadPerIteration > 0 {
			ratio = r.DBMS.BytesReadPerIteration / r.UEI.BytesReadPerIteration
		}
		fmt.Fprintf(&b, "  %-8s UEI %.0f B/iter, DBMS %.0f B/iter (%.0fx)\n",
			r.Class, r.UEI.BytesReadPerIteration, r.DBMS.BytesReadPerIteration, ratio)
	}
	return b.String()
}

// SpeedupAcrossClasses returns the mean DBMS/UEI response-time ratio over
// the supplied results — the paper's headline "more than 50x" number.
func SpeedupAcrossClasses(results []*ComparisonResult) float64 {
	var sum float64
	n := 0
	for _, r := range results {
		u := r.UEI.Latency.Mean()
		d := r.DBMS.Latency.Mean()
		if u > 0 && d > 0 {
			sum += float64(d) / float64(u)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
