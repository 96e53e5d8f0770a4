package loadgen

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/uei-db/uei/internal/obs"
)

// TraceJoin is the server-side view of a run: the server's trace JSONL
// filtered to the trace ids the clients collected from X-Uei-Trace-Id.
// It answers "when p95 blew the budget, which phase ate it" with
// uei-trace's own report over exactly this run's steps.
type TraceJoin struct {
	// Matched counts client-collected trace ids found in the file;
	// Missing counts ids the file did not contain (trace written by a
	// different server, or rotated away).
	Matched int `json:"matched"`
	Missing int `json:"missing"`
	// Unmatched counts traces present in the file but not collected by
	// this run (other clients, warmup traffic).
	Unmatched int `json:"unmatched"`
	// Steps is the analysis restricted to the matched steps.
	Steps *obs.Analysis `json:"-"`
}

// JoinTraceFile joins a run's collected trace ids against a server trace
// JSONL file.
func JoinTraceFile(path string, traceIDs []string) (*TraceJoin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: open trace: %w", err)
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	return JoinTrace(obs.Analyze(events), traceIDs), nil
}

// JoinTrace filters an analyzed trace stream to the collected trace ids.
func JoinTrace(a *obs.Analysis, traceIDs []string) *TraceJoin {
	want := make(map[string]bool, len(traceIDs))
	for _, id := range traceIDs {
		want[id] = true
	}
	matched := &obs.Analysis{}
	for _, st := range a.Steps {
		if want[st.TraceID] {
			matched.Steps = append(matched.Steps, st)
		}
	}
	return &TraceJoin{
		Matched:   len(matched.Steps),
		Missing:   len(want) - len(matched.Steps),
		Unmatched: len(a.Steps) - len(matched.Steps),
		Steps:     matched,
	}
}

// writeHuman appends the join counts and, for the matched steps, the
// report uei-trace would print: SLO compliance, phase breakdown, slowest
// steps, shard skew.
func (j *TraceJoin) writeHuman(w io.Writer, budget time.Duration) {
	fmt.Fprintf(w, "trace_join matched=%d missing=%d unmatched=%d\n", j.Matched, j.Missing, j.Unmatched)
	// A write error here is an error on the report stream (stdout), like
	// every other line of the human report.
	_ = j.Steps.WriteReport(w, obs.ReportOptions{Budget: budget})
}
