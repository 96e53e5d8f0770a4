package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stepClock advances one millisecond per reading, making every emitted
// timestamp and duration deterministic.
func stepClock() func() time.Time {
	base := time.Unix(1600000000, 0)
	ticks := 0
	return func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Millisecond)
	}
}

// TestTracerGolden pins the emitted JSONL byte for byte with an injected
// clock: one trace, a root with two phase children, children first (a
// span is written when it ends).
func TestTracerGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetNow(stepClock()) // rebases start to tick 1

	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr.NewTrace()), "iteration") // tick 2
	_, score := StartSpan(ctx, PhaseScore)                                                     // tick 3
	score.End(map[string]float64{"points": 3125, "cell": 2})                                   // tick 4
	_, load := StartSpan(ctx, PhaseLoad)                                                       // tick 5
	load.End(nil)                                                                              // tick 6
	root.End(map[string]float64{"iter": 1})                                                    // tick 7

	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	if tr.Err() != nil {
		t.Errorf("Err = %v", tr.Err())
	}
}

func TestTracerEventShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetNow(stepClock())
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr.NewTrace()), "iteration")
	_, child := StartSpan(ctx, PhaseRetrain)
	child.End(map[string]float64{"labeled": 12})
	root.SetOutcome("ok")
	root.End(nil)

	dec := json.NewDecoder(&buf)
	var span, iter Event
	if err := dec.Decode(&span); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&iter); err != nil {
		t.Fatal(err)
	}
	if span.Type != "span" || span.Phase != PhaseRetrain || span.TraceID != "t000001" || span.SpanID != "2" || span.ParentID != "1" {
		t.Errorf("span = %+v", span)
	}
	if span.DurNS <= 0 {
		t.Errorf("span duration %d must be positive", span.DurNS)
	}
	if span.Attrs["labeled"] != 12 {
		t.Errorf("attrs = %v", span.Attrs)
	}
	if iter.Type != "span" || iter.Phase != "iteration" || iter.TraceID != span.TraceID || iter.SpanID != "1" || iter.ParentID != "" || iter.Outcome != "ok" {
		t.Errorf("iteration = %+v", iter)
	}
	if iter.StartNS > span.StartNS || iter.StartNS+iter.DurNS < span.StartNS+span.DurNS {
		t.Error("iteration root must cover its child span")
	}
}

// TestNilTracerStillMeasures checks the disabled paths: a nil tracer mints
// a nil trace, a nil trace leaves the context alone, and the spans opened
// on it emit nothing but still report the time they measured.
func TestNilTracerStillMeasures(t *testing.T) {
	var tr *Tracer
	tr.SetNow(stepClock()) // no-op, must not panic
	if tr.Err() != nil {
		t.Error("nil tracer Err must be nil")
	}
	ctx := ContextWithTrace(context.Background(), tr.NewTrace())
	if ctx != context.Background() {
		t.Error("a nil tracer's trace must not grow the context")
	}
	sctx, span := StartSpan(ctx, PhaseScore)
	if sctx != ctx {
		t.Error("a measuring-only span must not grow the context")
	}
	time.Sleep(time.Millisecond)
	if d := span.End(nil); d <= 0 {
		t.Errorf("nil-tracer span duration = %v, want positive", d)
	}
	var s *Span
	s.SetOutcome("ok")
	if s.End(nil) != 0 {
		t.Error("nil span End must return 0")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestTracerStickyWriteError(t *testing.T) {
	fw := &failWriter{}
	tr := NewTracer(fw)
	tr.SetNow(stepClock())
	ctx := ContextWithTrace(context.Background(), tr.NewTrace())
	for _, phase := range []string{PhaseScore, PhaseLoad, PhaseSwap} {
		_, span := StartSpan(ctx, phase)
		span.End(nil)
	}
	if tr.Err() == nil {
		t.Fatal("expected a write error")
	}
	if fw.n != 1 {
		t.Errorf("writer called %d times; the first failure must silence the trace", fw.n)
	}
}

func TestPhaseHistName(t *testing.T) {
	if got := PhaseHistName(PhaseScore); got != "phase_score_seconds" {
		t.Errorf("PhaseHistName = %q", got)
	}
}
