package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WriteJSON emits the registry snapshot as an expvar-style JSON document
// (the /debug/vars payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// metricBase strips a trailing {label="..."} block from a registry name,
// returning the Prometheus family name. Labeled series are registered
// under names like `shard_skip_total{shard="3"}`; the family gets one
// # TYPE line shared by all its series.
func metricBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (the /metrics payload): counters and gauges as single samples
// (grouped into families when registered with {label=...} suffixes),
// histograms as cumulative _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	typed := map[string]bool{}
	for _, name := range sortedKeys(s.Counters) {
		base := metricBase(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		base := metricBase(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", name,
			strconv.FormatFloat(s.Gauges[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	var bounds map[string][]float64
	if len(s.Histograms) > 0 {
		bounds = r.histBounds()
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		bs := bounds[name]
		for i, cum := range h.Buckets {
			le := "+Inf"
			if i < len(bs) {
				le = strconv.FormatFloat(bs[i], 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name,
			strconv.FormatFloat(h.Sum, 'g', -1, 64), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// histBounds snapshots every histogram's bucket bounds for export.
func (r *Registry) histBounds() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, h := range r.hists {
		out[name] = h.Bounds()
	}
	return out
}

// Handler serves the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
