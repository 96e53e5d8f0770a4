package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// IterationHistName is the root iteration-latency histogram FormatSummary
// uses as the wall-time denominator of the phase breakdown.
const IterationHistName = "ide_iteration_seconds"

// ScoreStateBytesGauge names the gauge holding the memory of all
// incremental-scoring state on the registry: each view's symbolic-point
// neighbour table plus each session's pool table. Owners add and subtract
// their own share, so it is a sum over live views and sessions.
const ScoreStateBytesGauge = "uei_score_state_bytes"

// PhaseStat is one row of the phase-latency breakdown.
type PhaseStat struct {
	Phase string
	HistogramSnapshot
}

// PhaseBreakdown extracts every phase_<name>_seconds histogram from the
// registry, sorted by descending total time, plus the total iteration wall
// time (from IterationHistName; zero when absent).
func PhaseBreakdown(r *Registry) (phases []PhaseStat, totalWall time.Duration) {
	s := r.Snapshot()
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, "phase_") || !strings.HasSuffix(name, "_seconds") {
			continue
		}
		phase := strings.TrimSuffix(strings.TrimPrefix(name, "phase_"), "_seconds")
		phases = append(phases, PhaseStat{Phase: phase, HistogramSnapshot: h})
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].Sum != phases[j].Sum {
			return phases[i].Sum > phases[j].Sum
		}
		return phases[i].Phase < phases[j].Phase
	})
	if it, ok := s.Histograms[IterationHistName]; ok {
		totalWall = secs(it.Sum)
	}
	return phases, totalWall
}

// FormatSummary renders the phase-latency breakdown table: per phase, the
// call count, total and mean time, tail percentiles, and the share of
// iteration wall time attributed to it. It is the after-run "-summary"
// report of uei-explore and uei-bench.
func FormatSummary(r *Registry) string {
	phases, totalWall := PhaseBreakdown(r)
	var b strings.Builder
	b.WriteString("Phase latency breakdown\n")
	if len(phases) == 0 {
		b.WriteString("  (no phase histograms recorded)\n")
		return b.String()
	}
	denom := totalWall
	if denom == 0 {
		for _, p := range phases {
			denom += secs(p.Sum)
		}
	}
	fmt.Fprintf(&b, "  %-10s %8s %12s %12s %12s %12s %12s %7s\n",
		"phase", "count", "total", "mean", "p50", "p95", "max", "share")
	var attributed time.Duration
	for _, p := range phases {
		total := secs(p.Sum)
		attributed += total
		share := 0.0
		if denom > 0 {
			share = float64(total) / float64(denom) * 100
		}
		fmt.Fprintf(&b, "  %-10s %8d %12s %12s %12s %12s %12s %6.1f%%\n",
			p.Phase, p.Count,
			total.Round(time.Microsecond),
			secs(p.Mean).Round(time.Microsecond),
			secs(p.P50).Round(time.Microsecond),
			secs(p.P95).Round(time.Microsecond),
			secs(p.Max).Round(time.Microsecond),
			share)
	}
	if totalWall > 0 {
		fmt.Fprintf(&b, "  attributed %s of %s iteration wall time (%.1f%%)\n",
			attributed.Round(time.Microsecond), totalWall.Round(time.Microsecond),
			float64(attributed)/float64(totalWall)*100)
	} else {
		fmt.Fprintf(&b, "  attributed %s across %d phases (no iteration root histogram)\n",
			attributed.Round(time.Microsecond), len(phases))
	}
	b.WriteString(formatScoreSkipLine(r))
	b.WriteString(formatBlockCacheLine(r))
	return b.String()
}

// formatScoreSkipLine summarizes the incremental rescorer's effectiveness:
// the share of symbolic-point scoring work the exact delta rule (or the
// bounded-staleness knob) skipped. It renders nothing when no cell was
// ever skipped, so legacy and full-rescore runs keep the summary
// unchanged.
func formatScoreSkipLine(r *Registry) string {
	s := r.Snapshot()
	scored := s.Counters["uei_score_scored_cells_total"]
	skipped := s.Counters["uei_score_skipped_cells_total"]
	if skipped == 0 {
		return ""
	}
	total := scored + skipped
	return fmt.Sprintf("Score skipping: %.1f%% of cells skipped (%d skipped / %d total) by exact incremental rescoring\n",
		float64(skipped)/float64(total)*100, skipped, total)
}

// formatBlockCacheLine summarizes the shared block cache's effectiveness
// (hit rate, coalesced loads, evictions, resident bytes) when one was
// active during the run; it renders nothing otherwise, so cacheless runs
// keep the summary unchanged.
func formatBlockCacheLine(r *Registry) string {
	s := r.Snapshot()
	hits := s.Counters["blockcache_hits_total"]
	misses := s.Counters["blockcache_misses_total"]
	lookups := hits + misses
	if lookups == 0 {
		return ""
	}
	return fmt.Sprintf("Block cache: %.1f%% hit rate (%d hits / %d lookups), %d coalesced, %d evictions, %d bytes resident\n",
		float64(hits)/float64(lookups)*100, hits, lookups,
		s.Counters["blockcache_coalesced_total"],
		s.Counters["blockcache_evictions_total"],
		int64(s.Gauges["blockcache_resident_bytes"]))
}

// secs converts a float64 second count to a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
