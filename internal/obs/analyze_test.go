package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAnalyzeSampleReportGolden runs the full analyzer over the checked-in
// sample trace (one fast sharded step, one SLO-violating step degraded by
// a shard timeout, one label/retrain step) and compares the complete
// uei-trace report against its golden rendering. The golden file doubles
// as the documentation sample referenced by the README.
func TestAnalyzeSampleReportGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "sample_trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(events)

	if len(a.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(a.Steps))
	}
	if orphans := a.Orphans(); len(orphans) != 0 {
		t.Fatalf("orphans = %v", orphans)
	}
	slow := a.Steps[1] // t000002
	if slow.TraceID != "t000002" || slow.Wall() != 600*time.Millisecond {
		t.Fatalf("slow step = %s wall %v", slow.TraceID, slow.Wall())
	}
	if slow.Root.Ev.Outcome != "degraded" {
		t.Errorf("slow step outcome = %q", slow.Root.Ev.Outcome)
	}

	var buf bytes.Buffer
	if err := a.WriteReport(&buf, ReportOptions{TopN: 2, Budget: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample_report.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report mismatch\ngot:\n%swant:\n%s", buf.Bytes(), want)
	}
}

// TestAnalyzeAttributionCoverage checks the analyzer's additive phase
// decomposition on the sample's slow step: the phase spans (score, select,
// retrain — not the shard fan-outs nested inside score) must account for
// the root wall time to within the 5% bound the acceptance criteria set.
func TestAnalyzeAttributionCoverage(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "sample_trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(events)
	slow := a.Steps[1]
	wantSum := 520*time.Millisecond + 30*time.Millisecond + 25*time.Millisecond
	if slow.PhaseSum() != wantSum {
		t.Errorf("phase sum = %v, want %v (shard spans must not double-count)", slow.PhaseSum(), wantSum)
	}
	if cov := slow.Coverage(); math.Abs(cov-1) > 0.05 {
		t.Errorf("coverage = %.3f, want within 5%% of 1.0", cov)
	}
}

func TestAnalyzeOrphanDetection(t *testing.T) {
	events := []Event{
		{Type: "span", TraceID: "t000009", SpanID: "1", Phase: "step", DurNS: 10},
		{Type: "span", TraceID: "t000009", SpanID: "7", ParentID: "99", Phase: PhaseScore, DurNS: 5},
	}
	a := Analyze(events)
	orphans := a.Orphans()
	if len(orphans) != 1 || orphans[0] != "t000009/7" {
		t.Fatalf("orphans = %v, want [t000009/7]", orphans)
	}

	var buf bytes.Buffer
	if err := a.WriteReport(&buf, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ORPHANED SPANS (1)") {
		t.Errorf("report must surface orphans:\n%s", buf.String())
	}
}

func TestReadTraceMalformed(t *testing.T) {
	const ok = "{\"type\":\"span\",\"trace_id\":\"t000001\",\"span_id\":\"1\",\"start_ns\":0,\"dur_ns\":1}\n"
	if _, err := ReadTrace(strings.NewReader(ok + "not json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
	// A span without its ids belongs to no trace: malformed like any other.
	for _, line := range []string{
		"{\"type\":\"span\",\"phase\":\"score\",\"start_ns\":0,\"dur_ns\":1}\n",
		"{\"type\":\"span\",\"trace_id\":\"t000001\",\"start_ns\":0,\"dur_ns\":1}\n",
	} {
		if _, err := ReadTrace(strings.NewReader(ok + line)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("id-less span must error naming its line; got %v", err)
		}
	}
	events, err := ReadTrace(strings.NewReader("\n\n" + ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Errorf("blank lines must be skipped; got %d events", len(events))
	}
}

// TestWriteReportEmpty checks the degenerate report (no events at all)
// renders without panicking and says so.
func TestWriteReportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Analysis{}).WriteReport(&buf, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no traced steps") {
		t.Errorf("empty report:\n%s", buf.String())
	}
}

// The SCORE SKIPPING section reports both consumers of the resumable scan —
// symbolic points from the score spans, pool rows from the select spans —
// and the terminal rows a classify span settled without a selection; it
// stays out of reports whose traces carry none of them.
func TestReportScoreSkipping(t *testing.T) {
	step := func(trace string, score, sel map[string]float64) []Event {
		return []Event{
			{Type: "span", TraceID: trace, SpanID: "1", Phase: "step", DurNS: 10},
			{Type: "span", TraceID: trace, SpanID: "2", ParentID: "1", Phase: PhaseScore, DurNS: 4, Attrs: score},
			{Type: "span", TraceID: trace, SpanID: "3", ParentID: "1", Phase: PhaseSelect, StartNS: 4, DurNS: 5, Attrs: sel},
		}
	}
	report := func(events []Event) string {
		var buf bytes.Buffer
		if err := Analyze(events).WriteReport(&buf, ReportOptions{TopN: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	events := append(
		step("a", map[string]float64{"points": 100, "skipped": 0}, map[string]float64{"pool": 50, "carried": 0, "scanned": 50, "changed": 0}),
		step("b", map[string]float64{"points": 100, "skipped": 60}, map[string]float64{"pool": 50, "carried": 45, "scanned": 5, "changed": 9})...)
	events = append(events,
		Event{Type: "span", TraceID: "c", SpanID: "1", Phase: "result", DurNS: 9},
		Event{Type: "span", TraceID: "c", SpanID: "2", ParentID: "1", Phase: PhaseRetrieve, DurNS: 8},
		Event{Type: "span", TraceID: "c", SpanID: "3", ParentID: "2", Phase: SpanClassify, StartNS: 3, DurNS: 5,
			Attrs: map[string]float64{"rows": 400, "settled": 300, "selected": 100, "positive": 7}})
	got := report(events)
	for _, want := range []string{
		"SCORE SKIPPING\n",
		"  cells skipped 60 of 200 (30.0%) by exact incremental rescoring\n",
		"  pool rows carried 45 of 100 (45.0%) by resuming their k-NN scan, 9 changed by a new label\n",
		"  terminal rows settled without selection: 300 of 400 (75.0%)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
	if got := report(events[:3]); strings.Contains(got, "SCORE SKIPPING") {
		t.Errorf("a trace that skipped and carried nothing renders the section:\n%s", got)
	}
}

// Only traces rooted at a "step" span are steps: a create, a result
// retrieval or a CLI run is listed once under OTHER ROOTS and stays out of
// the SLO and slowest-steps sections, while its phases, shard spans and
// orphans still count.
func TestAnalyzeSplitsStepsFromOtherRoots(t *testing.T) {
	ms := int64(time.Millisecond)
	events := []Event{
		{Type: "span", TraceID: "t000001", SpanID: "1", Phase: "create", DurNS: 12 * ms},
		{Type: "span", TraceID: "t000001", SpanID: "2", ParentID: "1", Phase: PhasePrepare, DurNS: 9 * ms},
		{Type: "span", TraceID: "t000002", SpanID: "1", Phase: StepRoot, Outcome: "ok", DurNS: 40 * ms},
		{Type: "span", TraceID: "t000002", SpanID: "2", ParentID: "1", Phase: PhaseQueueWait, DurNS: 30 * ms},
		{Type: "span", TraceID: "t000003", SpanID: "1", Phase: "create", DurNS: 20 * ms},
		{Type: "span", TraceID: "t000004", SpanID: "1", Phase: "run", DurNS: 3000 * ms},
		{Type: "span", TraceID: "t000004", SpanID: "5", ParentID: "9", Phase: PhaseScore, DurNS: ms},
	}
	a := Analyze(events)
	if len(a.Steps) != 1 || a.Steps[0].TraceID != "t000002" || len(a.Others) != 3 {
		t.Fatalf("steps = %d, others = %d; want the one step-rooted trace and three others", len(a.Steps), len(a.Others))
	}
	if got := a.Steps[0].Phases[PhaseQueueWait]; got != 30*time.Millisecond {
		t.Errorf("queue_wait must count as a phase of its step; got %v", got)
	}
	if orphans := a.Orphans(); len(orphans) != 1 || orphans[0] != "t000004/5" {
		t.Errorf("orphans = %v, want the run trace's [t000004/5]", orphans)
	}
	var buf bytes.Buffer
	if err := a.WriteReport(&buf, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"  steps      1\n",
		"  violations 0 (100.0% compliant)\n",
		"\nOTHER ROOTS\n  create     traces 2    total   32.000ms  p50   12.000ms  p95   20.000ms\n  run        traces 1 ",
		"PHASE BREAKDOWN (all traces, wall 3072.000ms)\n",
		"  prepare   ",
		"SLOWEST STEPS (top 1)\n  t000002 ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}

	// A stream with no step at all reports so instead of inventing one.
	buf.Reset()
	if err := Analyze(events[:2]).WriteReport(&buf, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "no traced steps") || strings.Contains(got, "SLOWEST STEPS") {
		t.Errorf("a create-only stream must report no steps:\n%s", got)
	}
}
