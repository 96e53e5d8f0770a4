package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func exportFixture() *Registry {
	r := NewRegistry()
	r.Counter("reads_total").Add(7)
	r.Gauge("used_bytes").Set(1024.5)
	h := r.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := exportFixture().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reads_total counter\nreads_total 7\n",
		"# TYPE used_bytes gauge\nused_bytes 1024.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 2.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestWritePrometheusLabeledFamilies checks that labeled series (names
// carrying a {label} suffix, like the per-shard skip counters) share one
// # TYPE header per metric family, as the exposition format requires.
func TestWritePrometheusLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`shard_skip_total{shard="0"}`).Add(2)
	r.Counter(`shard_skip_total{shard="1"}`).Add(5)
	r.Counter(`shard_degraded_cause_total{cause="deadline"}`).Inc()
	r.Gauge(`slo_violation_phase_seconds{phase="score"}`).Set(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE shard_skip_total counter"); got != 1 {
		t.Errorf("shard_skip_total TYPE lines = %d, want exactly 1 in:\n%s", got, out)
	}
	for _, want := range []string{
		"shard_skip_total{shard=\"0\"} 2\n",
		"shard_skip_total{shard=\"1\"} 5\n",
		"# TYPE shard_degraded_cause_total counter\nshard_degraded_cause_total{cause=\"deadline\"} 1\n",
		"# TYPE slo_violation_phase_seconds gauge\nslo_violation_phase_seconds{phase=\"score\"} 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := exportFixture().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["reads_total"] != 7 || s.Gauges["used_bytes"] != 1024.5 {
		t.Errorf("round-trip = %+v", s)
	}
	if s.Histograms["lat_seconds"].Count != 3 {
		t.Errorf("histogram = %+v", s.Histograms["lat_seconds"])
	}
}
