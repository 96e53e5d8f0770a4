package obs

import (
	"strings"
	"testing"
	"time"
)

func summaryFixture() *Registry {
	r := NewRegistry()
	r.Histogram(PhaseHistName(PhaseScore), nil).ObserveDuration(30 * time.Millisecond)
	r.Histogram(PhaseHistName(PhaseScore), nil).ObserveDuration(50 * time.Millisecond)
	r.Histogram(PhaseHistName(PhaseLoad), nil).ObserveDuration(15 * time.Millisecond)
	r.Histogram(IterationHistName, nil).ObserveDuration(100 * time.Millisecond)
	// A histogram outside the phase naming contract must not appear.
	r.Histogram("chunkstore_chunk_read_seconds", nil).ObserveDuration(time.Second)
	return r
}

func TestPhaseBreakdown(t *testing.T) {
	phases, wall := PhaseBreakdown(summaryFixture())
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want score and load only", phases)
	}
	// Sorted by descending total: score (80ms) before load (15ms).
	if phases[0].Phase != PhaseScore || phases[1].Phase != PhaseLoad {
		t.Errorf("order = %s, %s", phases[0].Phase, phases[1].Phase)
	}
	if phases[0].Count != 2 || phases[1].Count != 1 {
		t.Errorf("counts = %d, %d", phases[0].Count, phases[1].Count)
	}
	if wall != 100*time.Millisecond {
		t.Errorf("wall = %v", wall)
	}
}

func TestFormatSummary(t *testing.T) {
	out := FormatSummary(summaryFixture())
	for _, want := range []string{"phase", "score", "load", "95.0%", "100ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "chunk_read") {
		t.Errorf("non-phase histogram leaked into summary:\n%s", out)
	}
}

func TestFormatSummaryEmpty(t *testing.T) {
	out := FormatSummary(NewRegistry())
	if !strings.Contains(out, "no phase histograms") {
		t.Errorf("empty summary = %q", out)
	}
	// Nil registry must not panic either.
	if got := FormatSummary(nil); !strings.Contains(got, "no phase histograms") {
		t.Errorf("nil summary = %q", got)
	}
}

func TestFormatSummaryBlockCacheLine(t *testing.T) {
	// Without cache activity the summary stays exactly as before.
	if out := FormatSummary(summaryFixture()); strings.Contains(out, "Block cache") {
		t.Errorf("cacheless summary mentions the block cache:\n%s", out)
	}
	r := summaryFixture()
	r.Counter("blockcache_hits_total").Add(75)
	r.Counter("blockcache_misses_total").Add(25)
	r.Counter("blockcache_coalesced_total").Add(7)
	r.Counter("blockcache_evictions_total").Add(3)
	r.Gauge("blockcache_resident_bytes").SetInt(4096)
	out := FormatSummary(r)
	for _, want := range []string{
		"Block cache: 75.0% hit rate (75 hits / 100 lookups)",
		"7 coalesced", "3 evictions", "4096 bytes resident",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatSummaryNoIterationRoot(t *testing.T) {
	r := NewRegistry()
	r.Histogram(PhaseHistName(PhaseScore), nil).ObserveDuration(10 * time.Millisecond)
	out := FormatSummary(r)
	if !strings.Contains(out, "no iteration root histogram") {
		t.Errorf("summary without root = %q", out)
	}
	// Shares fall back to the phase-sum denominator: one phase owns 100%.
	if !strings.Contains(out, "100.0%") {
		t.Errorf("fallback share missing:\n%s", out)
	}
}
