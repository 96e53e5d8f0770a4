package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// compareResults applies the end-to-end bounds to two sets of untraced
// result files. Each argument is a result file or a directory of them; a
// directory's runs of one workload are reduced to their median, and their
// spread (interquartile range over median, as Python's
// statistics.quantiles(n=4) computes it) decides whether a difference can
// be resolved at all. It prints one row per workload x metric and reports
// whether any row is worse.
func compareResults(w io.Writer, basePath, newPath string) (worse bool, err error) {
	base, err := loadResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	if len(base) == 0 || len(cand) == 0 {
		return false, fmt.Errorf("no untraced result files to compare")
	}
	if a, b := base[0].Host, cand[0].Host; a.CPUModel != b.CPUModel || a.NProc != b.NProc {
		return false, fmt.Errorf("results come from different hosts (%q x%d vs %q x%d): refusing to compare",
			a.CPUModel, a.NProc, b.CPUModel, b.NProc)
	}
	fmt.Fprintf(w, "%-15s %-20s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "base", "new", "change", "bound", "spread", "verdict")
	for _, wl := range workloads(false) {
		for _, def := range append(append([]metricDef{}, endToEnd...), resultFileOnly...) {
			a, b := valuesOf(base, wl.Name, def.Name), valuesOf(cand, wl.Name, def.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			spread := max(spreadOf(a), spreadOf(b))
			sort.Float64s(a)
			sort.Float64s(b)
			if slices.Equal(a, b) {
				// The same values on both sides (an exact metric on the
				// same seeds) are the same however much they spread.
				spread = 0
			}
			change, v := verdict(def, ma, mb, spread)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-15s %-20s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				wl.Name, def.Name, ma, mb, change*100, def.Bound*100, spread*100, v)
		}
	}
	return worse, nil
}

// verdict classifies a change of a metric's median from base to cand.
// change is signed so that positive means worse. Within the bound, a spread
// wider than the bound makes the comparison unresolved rather than same.
func verdict(def metricDef, base, cand, spread float64) (change float64, v string) {
	if base != 0 {
		change = (cand - base) / base
	}
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		return change, "worse"
	case change < -def.Bound:
		return change, "better"
	case spread > def.Bound:
		return change, "unresolved"
	}
	return change, "same"
}

// spreadOf is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) (the "exclusive"
// method). Fewer than two values have no spread.
func spreadOf(vals []float64) float64 {
	n := len(vals)
	m := median(vals)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

func valuesOf(rs []runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadResults reads one result file, or every *.json result file of a
// directory, keeping the untraced full-size runs.
func loadResults(path string) ([]runResult, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []runResult
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace || r.Quick {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}
