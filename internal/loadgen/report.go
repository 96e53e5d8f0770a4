package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"
)

// LatencyStats is one operation's latency profile in milliseconds.
type LatencyStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// SLOOK counts calls within the SLO budget; Compliance is
	// SLOOK/Count (1 when no calls happened).
	SLOOK      int64   `json:"slo_ok"`
	Compliance float64 `json:"compliance"`
}

func latencyStats(o *opStats, slo time.Duration) LatencyStats {
	return LatencyStats{
		Count:      int64(o.lat.Count()),
		Errors:     o.errors,
		MeanMs:     millis(o.lat.Mean()),
		P50Ms:      millis(o.lat.Quantile(0.50)),
		P95Ms:      millis(o.lat.Quantile(0.95)),
		P99Ms:      millis(o.lat.Quantile(0.99)),
		MaxMs:      millis(o.lat.Max()),
		SLOOK:      int64(o.lat.Within(slo)),
		Compliance: o.lat.FractionWithin(slo),
	}
}

// millis converts a duration to fractional milliseconds, the unit of
// every report field.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// BackoffSummary is the backpressure ledger: how often the server said
// "not now" and how long the fleet waited as told. None of it counts
// against latency or SLO compliance.
type BackoffSummary struct {
	Rejects429 int64   `json:"rejects_429"`
	Rejects503 int64   `json:"rejects_503"`
	WaitMs     float64 `json:"wait_ms"`
	Exhausted  int64   `json:"exhausted"`
}

// ServerInfo records what the fleet was pointed at.
type ServerInfo struct {
	Rows   int `json:"rows"`
	Shards int `json:"shards,omitempty"`
}

// WriterStats summarizes the live-append side load.
type WriterStats struct {
	Appends   int64  `json:"appends,omitempty"`
	Rows      int64  `json:"rows,omitempty"`
	Errors    int64  `json:"errors,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// SessionCounts tallies session outcomes.
type SessionCounts struct {
	Planned   int `json:"planned"`
	Completed int `json:"completed"`
	Abandoned int `json:"abandoned"`
	Failed    int `json:"failed"`
	Degraded  int `json:"degraded_steps,omitempty"`
}

// Summary is a run's machine-readable report (-out writes it as JSON).
type Summary struct {
	Profile   string                  `json:"profile"`
	Seed      int64                   `json:"seed"`
	Users     int                     `json:"users"`
	WallSec   float64                 `json:"wall_sec"`
	Steps     LatencyStats            `json:"steps"`
	Phases    map[string]LatencyStats `json:"phases"`
	Create    LatencyStats            `json:"create"`
	ResultOp  LatencyStats            `json:"result"`
	Sessions  SessionCounts           `json:"sessions"`
	Regions   map[string]int          `json:"regions"`
	Backoff   BackoffSummary          `json:"backoff"`
	Writers   WriterStats             `json:"writers,omitempty"`
	Server    ServerInfo              `json:"server"`
	SLOMillis float64                 `json:"slo_millis"`
	// StepsPerSec is completed steps over wall time.
	StepsPerSec float64 `json:"steps_per_sec"`
	// WorkflowDigest is an FNV-64a hash of every session record (user,
	// region, budget, abandonment, label sequence — ids excluded). Equal
	// digests mean equal workflows: the reproducibility check.
	WorkflowDigest string `json:"workflow_digest"`
	// TraceJoin is the server-side view of the run's steps, present when
	// the run was joined against a trace file.
	TraceJoin *TraceJoin `json:"trace_join,omitempty"`
}

// summarize aggregates merged metrics into a Summary.
func summarize(p Profile, met *metrics, backoff *BackoffStats, records []SessionRecord, wall time.Duration) Summary {
	slo := time.Duration(p.SLOMillis * float64(time.Millisecond))
	s := Summary{
		Profile:   p.Name,
		Seed:      p.Seed,
		Users:     p.Users,
		WallSec:   wall.Seconds(),
		Steps:     latencyStats(met.allSteps(), slo),
		Phases:    map[string]LatencyStats{},
		Create:    latencyStats(&met.create, slo),
		ResultOp:  latencyStats(&met.result, slo),
		Regions:   map[string]int{},
		SLOMillis: p.SLOMillis,
		Backoff: BackoffSummary{
			Rejects429: backoff.Rejects429.Load(),
			Rejects503: backoff.Rejects503.Load(),
			WaitMs:     millis(time.Duration(backoff.WaitNanos.Load())),
			Exhausted:  backoff.Exhausted.Load(),
		},
	}
	for _, ph := range phaseOrder {
		if st := met.steps[ph]; st.lat.Count() > 0 || st.errors > 0 {
			s.Phases[ph] = latencyStats(st, slo)
		}
	}
	for _, r := range records {
		s.Sessions.Planned++
		s.Regions[r.Region]++
		s.Sessions.Degraded += r.Degraded
		switch {
		case r.Error != "":
			s.Sessions.Failed++
		case r.Abandoned:
			s.Sessions.Abandoned++
		case r.Done:
			s.Sessions.Completed++
		}
	}
	if s.WallSec > 0 {
		s.StepsPerSec = float64(s.Steps.Count) / s.WallSec
	}
	s.WorkflowDigest = digest(records)
	return s
}

// digest hashes the workflow-relevant fields of every record. Session
// ids and latencies are excluded on purpose: they vary run to run while
// the workflow itself must not.
func digest(records []SessionRecord) string {
	h := fnv.New64a()
	for _, r := range records {
		fmt.Fprintf(h, "%d/%d %s budget=%d abandon=%d done=%v labels=%v\n",
			r.User, r.Session, r.Region, r.MaxLabels, r.AbandonAfter, r.Done, r.Labels)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TotalErrors sums every error axis: failed requests across operations
// plus writer failures.
func (s *Summary) TotalErrors() int64 {
	return s.Steps.Errors + s.Create.Errors + s.ResultOp.Errors + s.Writers.Errors
}

// WriteJSON writes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteHuman writes the operator-facing report as stable `key=value`
// lines.
func (s *Summary) WriteHuman(w io.Writer) {
	fmt.Fprintf(w, "loadgen profile=%s seed=%d users=%d wall_sec=%.1f rows=%d shards=%d\n",
		s.Profile, s.Seed, s.Users, s.WallSec, s.Server.Rows, s.Server.Shards)
	fmt.Fprintf(w, "sessions planned=%d completed=%d abandoned=%d failed=%d\n",
		s.Sessions.Planned, s.Sessions.Completed, s.Sessions.Abandoned, s.Sessions.Failed)
	fmt.Fprintf(w, "steps count=%d errors=%d steps_per_sec=%.1f degraded=%d\n",
		s.Steps.Count, s.Steps.Errors, s.StepsPerSec, s.Sessions.Degraded)
	fmt.Fprintf(w, "step_latency_ms mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		s.Steps.MeanMs, s.Steps.P50Ms, s.Steps.P95Ms, s.Steps.P99Ms, s.Steps.MaxMs)
	for _, ph := range phaseOrder {
		st, ok := s.Phases[ph]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "phase name=%s count=%d p50=%.2f p95=%.2f p99=%.2f compliance=%.4f\n",
			ph, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.Compliance)
	}
	fmt.Fprintf(w, "create count=%d errors=%d p95=%.2f\n", s.Create.Count, s.Create.Errors, s.Create.P95Ms)
	fmt.Fprintf(w, "slo budget_ms=%.0f ok=%d compliance=%.4f\n", s.SLOMillis, s.Steps.SLOOK, s.Steps.Compliance)
	fmt.Fprintf(w, "backoff rejects_429=%d rejects_503=%d wait_ms=%.0f exhausted=%d\n",
		s.Backoff.Rejects429, s.Backoff.Rejects503, s.Backoff.WaitMs, s.Backoff.Exhausted)
	if s.Writers.Appends > 0 || s.Writers.Errors > 0 {
		fmt.Fprintf(w, "writers appends=%d rows=%d errors=%d\n", s.Writers.Appends, s.Writers.Rows, s.Writers.Errors)
	}
	fmt.Fprintf(w, "workflow digest=%s\n", s.WorkflowDigest)
	if s.TraceJoin != nil {
		s.TraceJoin.writeHuman(w, time.Duration(s.SLOMillis*float64(time.Millisecond)))
	}
}
