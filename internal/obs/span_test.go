package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeGolden builds the nested shape of a traced, degraded server
// step — step → iteration → score fan-out over two shards (one timing
// out) → select — with a deterministic clock, and compares the emitted
// JSONL byte-for-byte. It then reconstructs the trace and asserts the
// parent/child linkage and degradation annotations the stream encodes.
func TestSpanTreeGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetNow(stepClock())

	trace := tr.NewTrace()
	if trace.ID() != "t000001" {
		t.Fatalf("trace id = %q, want t000001", trace.ID())
	}
	ctx := ContextWithTrace(context.Background(), trace)
	sctx, root := StartSpan(ctx, "step")
	ictx, iter := StartSpan(sctx, "iteration")
	scx, score := StartSpan(ictx, PhaseScore)
	_, sh0 := StartSpan(scx, "shard_score")
	sh0.SetOutcome("ok")
	sh0.End(map[string]float64{"shard": 0})
	_, sh1 := StartSpan(scx, "shard_score")
	sh1.SetOutcome("timeout")
	sh1.End(map[string]float64{"shard": 1, "deadline_ms": 5})
	score.End(nil)
	_, sel := StartSpan(ictx, PhaseSelect)
	sel.End(nil)
	iter.SetOutcome("degraded")
	iter.End(map[string]float64{"iter": 1})
	root.SetOutcome("degraded")
	root.End(nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "spans.golden")
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
		t.Errorf("trace mismatch\ngot:\n%swant:\n%s", buf.Bytes(), want)
	}

	// The stream must reconstruct to one orphan-free tree with the
	// injected degradation visible on the right spans.
	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(events)
	if len(a.Steps) != 1 || len(a.Others) != 0 {
		t.Fatalf("steps = %d, others = %d", len(a.Steps), len(a.Others))
	}
	st := a.Steps[0]
	if len(st.Orphans) != 0 {
		t.Fatalf("orphans = %v", st.Orphans)
	}
	if st.Spans != 6 {
		t.Errorf("spans = %d, want 6", st.Spans)
	}
	if st.Root == nil || st.Root.Ev.Phase != "step" || st.Root.Ev.Outcome != "degraded" {
		t.Fatalf("root = %+v", st.Root)
	}
	var timeoutShard *SpanNode
	a.eachSpan(func(e Event) {
		if e.Phase == "shard_score" && e.Outcome == "timeout" {
			timeoutShard = &SpanNode{Ev: e}
		}
	})
	if timeoutShard == nil {
		t.Fatal("timed-out shard span missing from tree")
	}
	if timeoutShard.Ev.Attrs["shard"] != 1 {
		t.Errorf("timed-out shard attrs = %v, want shard 1", timeoutShard.Ev.Attrs)
	}

	// Budget attribution counts phase spans only: the containers (step,
	// iteration) and the shard fan-out must not double-count.
	totals := trace.PhaseTotals()
	if len(totals) != 2 || totals[PhaseScore] <= 0 || totals[PhaseSelect] <= 0 {
		t.Errorf("PhaseTotals = %v, want exactly score and select", totals)
	}
	if st.PhaseSum() >= st.Wall() {
		t.Errorf("phase sum %v must be below wall %v (containers excluded)", st.PhaseSum(), st.Wall())
	}
}

// TestSpanContextPropagation covers the StartSpan modes and the
// nil-safety contract of the context plumbing.
func TestSpanContextPropagation(t *testing.T) {
	ctx := context.Background()

	// Nil trace: the context is untouched and nothing reports traced.
	if got := ContextWithTrace(ctx, nil); got != ctx {
		t.Error("ContextWithTrace(nil) must return ctx unchanged")
	}
	if TraceFromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Error("plain context must carry no trace state")
	}

	// Measuring-only mode: no trace in ctx, span still times.
	mctx, m := StartSpan(ctx, "anything")
	if mctx != ctx {
		t.Error("measuring-only StartSpan must not grow the context")
	}
	time.Sleep(time.Millisecond)
	if d := m.End(nil); d <= 0 {
		t.Errorf("measuring-only duration = %v, want positive", d)
	}

	var nilTracer *Tracer
	if nilTracer.NewTrace() != nil {
		t.Error("nil tracer must mint nil traces")
	}
	var nilTrace *Trace
	if nilTrace.ID() != "" || nilTrace.PhaseTotals() != nil {
		t.Error("nil trace accessors must return zero values")
	}

	// Emitting mode: trace in ctx roots the first span, nests the rest.
	tr := NewTracer(&bytes.Buffer{})
	trace := tr.NewTrace()
	tctx := ContextWithTrace(ctx, trace)
	if TraceFromContext(tctx) != trace {
		t.Fatal("trace must round-trip through the context")
	}
	sctx, root := StartSpan(tctx, "step")
	if SpanFromContext(sctx) != root {
		t.Error("StartSpan must install the new span in the child context")
	}
	_, child := StartSpan(sctx, PhaseScore)
	child.End(nil)
	root.End(nil)
	if trace.PhaseTotals()[PhaseScore] <= 0 {
		t.Error("phase child must feed PhaseTotals")
	}
}

// TestTracerConcurrentSpans drives many goroutines through the full
// trace/span lifecycle on one tracer — the serving topology — and checks
// the stream stays line-atomic. Run with -race.
func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)

	const goroutines = 8
	const tracesEach = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tracesEach; i++ {
				ctx := ContextWithTrace(context.Background(), tr.NewTrace())
				sctx, root := StartSpan(ctx, "step")
				_, child := StartSpan(sctx, PhaseScore)
				child.End(map[string]float64{"i": float64(i)})
				root.SetOutcome("ok")
				root.End(nil)
			}
		}()
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := goroutines * tracesEach * 2; len(lines) != want {
		t.Fatalf("emitted %d lines, want %d", len(lines), want)
	}
	seen := map[string]bool{}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not valid JSON (interleaved write?): %v\n%s", i+1, err, line)
		}
		if e.TraceID == "" || e.SpanID == "" {
			t.Fatalf("line %d missing identity: %+v", i+1, e)
		}
		key := e.TraceID + "/" + e.SpanID
		if seen[key] {
			t.Fatalf("duplicate span identity %s", key)
		}
		seen[key] = true
	}
	if a := Analyze(mustEvents(t, &buf, lines)); len(a.Orphans()) != 0 {
		t.Errorf("orphans after concurrent emission: %v", a.Orphans())
	}
}

// mustEvents re-parses raw JSONL lines into events.
func mustEvents(t *testing.T, _ *bytes.Buffer, lines []string) []Event {
	t.Helper()
	events, err := ReadTrace(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestTraceIDSequence pins the id scheme: per-tracer sortable trace ids,
// per-trace numeric span ids.
func TestTraceIDSequence(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	for i := 1; i <= 3; i++ {
		want := fmt.Sprintf("t%06d", i)
		if got := tr.NewTrace().ID(); got != want {
			t.Errorf("trace %d id = %q, want %q", i, got, want)
		}
	}
}
