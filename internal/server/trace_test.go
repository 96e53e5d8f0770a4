package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
)

// buildShardedStore builds a small sharded synthetic store.
func buildShardedStore(t testing.TB, n, shards int) string {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 4096, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTracedDegradedShardedStep is the end-to-end trace acceptance test:
// a sharded manager with tracing on takes steps while one shard is forced
// to miss its deadline on every cell load. The degraded step's trace must
// reconstruct with no orphans, contain the failing shard's load span
// annotated with its id and "timeout" outcome beside the fallback load the
// other shard answered, return its trace id in the step response, attribute
// the step wall time to phases, and feed the SLO accountant.
func TestTracedDegradedShardedStep(t *testing.T) {
	dir := buildShardedStore(t, 2000, 2)
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	const deadline = 150 * time.Millisecond
	m := newTestManager(t, dir, func(c *Config) {
		c.Shards = 2
		c.ShardDeadline = deadline
		c.Tracer = tracer
		c.SLOBudget = time.Nanosecond // every completed step violates
	})

	// The shard the first cell load goes to — the owner of the session's
	// first winning cell — hangs every load until the per-shard deadline
	// fires, so that step degrades with a genuine timeout.
	var victimShard atomic.Int32
	victimShard.Store(-1)
	m.Index().ShardCoordinator().SetFaultHook(func(ctx context.Context, s int, op string) error {
		if op != shard.OpLoad {
			return nil
		}
		victimShard.CompareAndSwap(-1, int32(s))
		if int32(s) == victimShard.Load() {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})

	ctx := context.Background()
	info, err := m.Create(ctx, SessionSpec{MaxLabels: 4, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	var degraded StepResponse
	for i := 0; i < 12; i++ {
		resp, err := m.Step(ctx, info.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID == "" {
			t.Fatal("traced step response missing trace id")
		}
		if resp.Degraded && degraded.TraceID == "" {
			degraded = resp
		}
		if resp.Done {
			break
		}
	}
	if degraded.TraceID == "" {
		t.Fatal("no step degraded despite the hung shard")
	}
	victim := float64(victimShard.Load())

	events, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := obs.Analyze(events)
	if orphans := a.Orphans(); len(orphans) != 0 {
		t.Fatalf("orphaned spans: %v", orphans)
	}
	var st *obs.StepTrace
	for _, s := range a.Steps {
		if s.TraceID == degraded.TraceID {
			st = s
		}
	}
	if st == nil {
		t.Fatalf("degraded trace %s not in stream (have %d traces)", degraded.TraceID, len(a.Steps))
	}
	if st.Root == nil || st.Root.Ev.Phase != "step" {
		t.Fatalf("root = %+v", st.Root)
	}
	if st.Root.Ev.Outcome != "degraded" {
		t.Errorf("root outcome = %q, want degraded", st.Root.Ev.Outcome)
	}

	// The failing shard's load span must be present, annotated with its
	// id, deadline, and timeout outcome; the fallback load, on the healthy
	// shard, must read ok.
	var timeoutSpans, okSpans int
	walk(st.Root, func(n *obs.SpanNode) {
		if n.Ev.Phase != "shard_"+shard.OpLoad {
			return
		}
		switch n.Ev.Outcome {
		case "timeout":
			timeoutSpans++
			if n.Ev.Attrs["shard"] != victim {
				t.Errorf("timeout span attrs = %v, want shard %v", n.Ev.Attrs, victim)
			}
			if n.Ev.Attrs["deadline_ms"] != float64(deadline/time.Millisecond) {
				t.Errorf("timeout span deadline = %v, want %d", n.Ev.Attrs["deadline_ms"], deadline/time.Millisecond)
			}
			if d := time.Duration(n.Ev.DurNS); d < deadline {
				t.Errorf("timeout span duration %v shorter than the %v deadline", d, deadline)
			}
		case "ok":
			okSpans++
			if n.Ev.Attrs["shard"] == victim {
				t.Errorf("ok span attrs = %v on the hung shard %v", n.Ev.Attrs, victim)
			}
		default:
			t.Errorf("unexpected shard span outcome %q", n.Ev.Outcome)
		}
	})
	if timeoutSpans != 1 || okSpans != 1 {
		t.Errorf("shard load spans: %d timeout, %d ok; want one of each (one deadline wait, then the fallback)", timeoutSpans, okSpans)
	}

	// Budget attribution: with the 150ms shard timeout dominating the
	// step, the phase decomposition must account for the root wall time
	// within the acceptance bound.
	if cov := st.Coverage(); math.Abs(cov-1) > 0.05 {
		t.Errorf("phase coverage = %.3f (phases %v of wall %v), want within 5%%",
			cov, st.PhaseSum(), st.Wall())
	}

	// The SLO accountant saw the steps, and the 1ns budget makes each a
	// violation with its phases attributed.
	if m.SLO().Steps() == 0 || m.SLO().Violations() == 0 {
		t.Errorf("SLO steps=%d violations=%d, want both positive", m.SLO().Steps(), m.SLO().Violations())
	}
	if v := m.Registry().Gauge(`slo_violation_phase_seconds{phase="load"}`).Value(); v <= 0 {
		t.Errorf("load attribution gauge = %v, want positive", v)
	}
	if c := m.Registry().Counter(`shard_degraded_cause_total{cause="deadline"}`).Value(); c == 0 {
		t.Error("deadline-miss cause counter did not increment")
	}
	if c := m.Registry().Counter(fmt.Sprintf(`shard_skip_total{shard="%d"}`, victimShard.Load())).Value(); c == 0 {
		t.Error("per-shard skip counter did not increment")
	}
}

// walk visits a span subtree depth-first.
func walk(n *obs.SpanNode, fn func(*obs.SpanNode)) {
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// TestStepTraceIDHeader checks the HTTP surface: a traced step's response
// carries the trace id in both the JSON body and the X-Uei-Trace-Id
// header, and an untraced manager emits neither.
func TestStepTraceIDHeader(t *testing.T) {
	dir, _ := buildStore(t, 600)
	var buf bytes.Buffer
	m := newTestManager(t, dir, func(c *Config) { c.Tracer = obs.NewTracer(&buf) })
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"max_labels":3,"oracle":{"selectivity":0.05}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stepResp, err := http.Post(srv.URL+"/v1/sessions/"+info.ID+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stepResp.Body.Close()
	var step StepResponse
	if err := json.NewDecoder(stepResp.Body).Decode(&step); err != nil {
		t.Fatal(err)
	}
	if step.TraceID == "" {
		t.Fatal("traced step body missing trace_id")
	}
	if got := stepResp.Header.Get("X-Uei-Trace-Id"); got != step.TraceID {
		t.Errorf("X-Uei-Trace-Id = %q, body trace_id = %q", got, step.TraceID)
	}
}

// TestUntracedStepNoTraceID pins the disabled path: no tracer, no trace
// ids anywhere, and stepping still works.
func TestUntracedStepNoTraceID(t *testing.T) {
	dir, _ := buildStore(t, 600)
	m := newTestManager(t, dir, nil)
	info, err := m.Create(context.Background(), SessionSpec{MaxLabels: 3, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.Step(context.Background(), info.ID, StepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "" {
		t.Errorf("untraced step returned trace id %q", resp.TraceID)
	}
}

// TestStepRootCoversQueueWait holds every step-concurrency slot while a
// step arrives: the step's trace must show one queue_wait child of about
// the hold, under a root that contains it, and the SLO accountant must have
// been fed the whole request — wait included — not just the engine time.
func TestStepRootCoversQueueWait(t *testing.T) {
	dir, _ := buildStore(t, 600)
	var buf bytes.Buffer
	m := newTestManager(t, dir, func(c *Config) { c.Tracer = obs.NewTracer(&buf) })
	ctx := context.Background()
	info, err := m.Create(ctx, SessionSpec{MaxLabels: 3, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}

	const hold = 80 * time.Millisecond
	for i := 0; i < cap(m.stepSem); i++ {
		m.stepSem <- struct{}{}
	}
	type result struct {
		resp StepResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := m.Step(ctx, info.ID, StepRequest{})
		done <- result{resp, err}
	}()
	time.Sleep(hold)
	for i := 0; i < cap(m.stepSem); i++ {
		<-m.stepSem
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	events, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := obs.Analyze(events)
	if len(a.Steps) != 1 || a.Steps[0].TraceID != r.resp.TraceID {
		t.Fatalf("stream holds %d step traces, want the one queued step %s", len(a.Steps), r.resp.TraceID)
	}
	st := a.Steps[0]
	var waits []*obs.SpanNode
	for _, c := range st.Root.Children {
		if c.Ev.Phase == obs.PhaseQueueWait {
			waits = append(waits, c)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("root has %d queue_wait children, want 1", len(waits))
	}
	// The step goroutine may start a little into the hold; it cannot leave
	// the queue before the slots are released.
	wait := time.Duration(waits[0].Ev.DurNS)
	if wait < hold/2 || wait > st.Wall() {
		t.Errorf("queue_wait = %v under a %v root, want about the %v hold", wait, st.Wall(), hold)
	}
	if st.Phases[obs.PhaseQueueWait] != wait {
		t.Errorf("queue_wait is not attributed as a phase: %v", st.Phases)
	}
	if m.SLO().Steps() != 1 {
		t.Fatalf("SLO saw %d steps, want 1", m.SLO().Steps())
	}
	if p50, _, _ := m.SLO().Percentiles(); p50 < wait.Seconds() {
		t.Errorf("SLO observed %.1fms for a step that queued %v", 1000*p50, wait)
	}
}

// TestCreateAndResultTraces checks the request surface beyond steps: a
// session create and an unfinished session's result retrieval each mint
// their own trace, rooted "create" and "result" with their work beneath,
// and the analyzer keeps both out of the step SLO. A finished session's
// cached result retrieves nothing and mints nothing.
func TestCreateAndResultTraces(t *testing.T) {
	dir, _ := buildStore(t, 600)
	var buf bytes.Buffer
	m := newTestManager(t, dir, func(c *Config) { c.Tracer = obs.NewTracer(&buf) })
	ctx := context.Background()
	info, err := m.Create(ctx, SessionSpec{MaxLabels: 6, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() *obs.Analysis {
		t.Helper()
		events, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		a := obs.Analyze(events)
		if orphans := a.Orphans(); len(orphans) != 0 {
			t.Fatalf("orphaned spans: %v", orphans)
		}
		return a
	}
	// Step until the model is fitted (the first selection proposal), then
	// retrieve with the current model.
	steps := 0
	for {
		resp, err := m.Step(ctx, info.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if resp.Done {
			t.Fatal("session finished before its first selection iteration")
		}
		if resp.Iteration != nil {
			break
		}
	}
	if _, err := m.Result(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	a := analyze()
	if len(a.Steps) != steps || len(a.Others) != 2 {
		t.Fatalf("stream holds %d step and %d other traces, want %d and 2", len(a.Steps), len(a.Others), steps)
	}
	for i, want := range []string{"create", "result"} {
		st := a.Others[i]
		if st.Root == nil || st.Root.Ev.Phase != want || st.Root.Ev.Outcome != "ok" || st.Wall() <= 0 {
			t.Fatalf("trace %s root = %+v, want an ok %q root", st.TraceID, st.Root, want)
		}
	}
	// Materializing the first oracle session reads the store, and retrieval
	// is the result request's one phase: both land under their own roots.
	if a.Others[0].Spans < 2 {
		t.Errorf("create trace holds only its root; the oracle's store reads must nest under it")
	}
	if a.Others[1].Phases[obs.PhaseRetrieve] <= 0 {
		t.Errorf("result trace carries no retrieve phase: %v", a.Others[1].Phases)
	}

	// Finish the session; its cached final result mints no trace.
	for {
		resp, err := m.Step(ctx, info.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Done {
			break
		}
	}
	before := len(analyze().Others)
	if _, err := m.Result(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if after := len(analyze().Others); after != before {
		t.Errorf("a cached result minted a trace: %d other traces, then %d", before, after)
	}
}
