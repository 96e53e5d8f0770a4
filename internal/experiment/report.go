package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
)

// WriteSeriesCSV writes several series as one CSV with an x column and one
// y column per series (step-interpolated where a series has no point),
// suitable for external plotting of the accuracy figures.
func WriteSeriesCSV(w io.Writer, xLabel string, series ...*metrics.Series) error {
	cw := csv.NewWriter(w)
	header := []string{xLabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: write csv header: %w", err)
	}
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sortFloats(sorted)
	rec := make([]string, len(series)+1)
	for _, x := range sorted {
		rec[0] = strconv.FormatFloat(x, 'g', -1, 64)
		for i, s := range series {
			if y, ok := s.YAt(x); ok {
				rec[i+1] = strconv.FormatFloat(y, 'g', -1, 64)
			} else {
				rec[i+1] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiment: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportComparisonCSV writes one accuracy figure's curves and one
// response-time summary row into dir, named after the region class
// (fig<N>_accuracy.csv / fig6_<class>_latency.csv). It returns the written
// paths.
func ExportComparisonCSV(dir string, res *ComparisonResult) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: create %s: %w", dir, err)
	}
	accPath := filepath.Join(dir, fmt.Sprintf("fig%d_accuracy.csv", figureNumber(res.Class)))
	f, err := os.Create(accPath)
	if err != nil {
		return nil, fmt.Errorf("experiment: create %s: %w", accPath, err)
	}
	err = WriteSeriesCSV(f, "labels", res.UEI.Accuracy, res.DBMS.Accuracy)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	latPath := filepath.Join(dir, fmt.Sprintf("fig6_%s_latency.csv", res.Class))
	lf, err := os.Create(latPath)
	if err != nil {
		return nil, fmt.Errorf("experiment: create %s: %w", latPath, err)
	}
	cw := csv.NewWriter(lf)
	werr := cw.Write([]string{"scheme", "mean_ms", "p50_ms", "p95_ms", "max_ms", "frac_under_500ms", "bytes_per_iter"})
	for _, row := range []struct {
		name string
		r    SchemeResult
	}{{"uei", res.UEI}, {"dbms", res.DBMS}} {
		if werr != nil {
			break
		}
		lat := row.r.Latency
		werr = cw.Write([]string{
			row.name,
			ms(lat.Mean()),
			ms(lat.Quantile(0.50)),
			ms(lat.Quantile(0.95)),
			ms(lat.Max()),
			strconv.FormatFloat(lat.FractionWithin(obs.DefaultSLOBudget), 'f', 3, 64),
			strconv.FormatFloat(row.r.BytesReadPerIteration, 'f', 0, 64),
		})
	}
	cw.Flush()
	if werr == nil {
		werr = cw.Error()
	}
	if cerr := lf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("experiment: write %s: %w", latPath, werr)
	}
	return []string{accPath, latPath}, nil
}

func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

func sortFloats(v []float64) { sort.Float64s(v) }
