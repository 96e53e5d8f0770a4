package ide

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/obs"
)

// startTestTrace returns a context carrying a fresh trace with its root
// span ("explore") already open, and a finish function that ends the root
// and requires the emitted stream to be one well-formed tree: every event
// carrying its trace and span ids (ReadTrace rejects one that does not),
// one trace, exactly one root, no orphans, and one "iteration" span per
// iteration the session ran. The layout-parity runs (flat, sharded, live
// with appends) all run under it.
func startTestTrace(t *testing.T) (context.Context, func(iterations int) *obs.StepTrace) {
	t.Helper()
	var (
		mu  sync.Mutex // a straggling attempt may still write while finish reads
		buf bytes.Buffer
	)
	tracer := obs.NewTracer(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	ctx, root := obs.StartSpan(obs.ContextWithTrace(context.Background(), tracer.NewTrace()), "explore")
	return ctx, func(iterations int) *obs.StepTrace {
		t.Helper()
		root.End(nil)
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		stream := append([]byte(nil), buf.Bytes()...)
		mu.Unlock()
		events, err := obs.ReadTrace(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		roots := 0
		for _, e := range events {
			if e.ParentID == "" {
				roots++
			}
		}
		a := obs.Analyze(events)
		if len(a.Steps) != 0 || len(a.Others) != 1 || roots != 1 {
			t.Fatalf("stream holds %d step and %d other traces with %d roots; want the one explore trace with one root",
				len(a.Steps), len(a.Others), roots)
		}
		if orphans := a.Orphans(); len(orphans) != 0 {
			t.Fatalf("orphaned spans: %v", orphans)
		}
		st := a.Others[0]
		if st.Root.Ev.Phase != "explore" || st.Spans != len(events) {
			t.Fatalf("root %q links %d of %d spans", st.Root.Ev.Phase, st.Spans, len(events))
		}
		if got := countSpans(st.Root, "iteration"); got != iterations {
			t.Errorf("trace holds %d iteration spans, session ran %d", got, iterations)
		}
		return st
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// countSpans counts the spans named name anywhere below n.
func countSpans(n *obs.SpanNode, name string) int {
	c := 0
	if n.Ev.Phase == name {
		c++
	}
	for _, ch := range n.Children {
		c += countSpans(ch, name)
	}
	return c
}

// TestTraceSpanSequence runs a real UEI exploration in Run-mode under one
// trace and asserts the contract the -trace flag documents: every
// iteration is one "iteration" span whose children score → load → [swap] →
// select are ordered and contained, followed by its label and retrain
// siblings, each with positive duration.
func TestTraceSpanSequence(t *testing.T) {
	f := newFixture(t, 2000, 0.02)
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	idx, err := core.Open(context.Background(), dir, core.Options{
		MemoryBudgetBytes: 1 << 20,
		SampleSize:        200,
		Seed:              3,
		Registry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}

	const maxLabels = 12
	cfg := Config{
		MaxLabels:        maxLabels,
		BatchSize:        1, // retrain every iteration
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             2,
		SeedWithPositive: true,
		Registry:         reg,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, finish := startTestTrace(t)
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tree := finish(res.Iterations)

	// The root's children after initialization are, per iteration, an
	// iteration span then its label and retrain siblings.
	var loop []*obs.SpanNode
	for _, n := range tree.Root.Children {
		switch n.Ev.Phase {
		case "iteration", obs.PhaseLabel, obs.PhaseRetrain:
			loop = append(loop, n)
		}
	}
	if len(loop) != 3*res.Iterations {
		t.Fatalf("traced %d iteration/label/retrain spans, session ran %d iterations", len(loop), res.Iterations)
	}
	end := func(n *obs.SpanNode) int64 { return n.Ev.StartNS + n.Ev.DurNS }
	for n := 1; n <= res.Iterations; n++ {
		it, label, retrain := loop[3*n-3], loop[3*n-2], loop[3*n-1]
		if it.Ev.Phase != "iteration" || label.Ev.Phase != obs.PhaseLabel || retrain.Ev.Phase != obs.PhaseRetrain {
			t.Fatalf("iteration %d is followed by %s, %s; want iteration, label, retrain",
				n, label.Ev.Phase, retrain.Ev.Phase)
		}
		if it.Ev.Attrs["iter"] != float64(n) {
			t.Errorf("iteration %d span carries iter=%v", n, it.Ev.Attrs["iter"])
		}
		if !(end(it) <= label.Ev.StartNS && end(label) <= retrain.Ev.StartNS) {
			t.Errorf("iteration %d: iteration, label, retrain overlap or are out of order", n)
		}
		var names []string
		prevEnd := it.Ev.StartNS
		for _, sp := range it.Children {
			names = append(names, sp.Ev.Phase)
			if sp.Ev.StartNS < prevEnd || end(sp) > end(it) {
				t.Errorf("iteration %d phase %s [%d,%d] overlaps its predecessor or leaves the iteration [%d,%d]",
					n, sp.Ev.Phase, sp.Ev.StartNS, end(sp), it.Ev.StartNS, end(it))
			}
			prevEnd = end(sp)
		}
		got := strings.Join(names, " ")
		if got != "score load select" && got != "score load swap select" {
			t.Errorf("iteration %d children = %q, want score load [swap] select", n, got)
		}
		for _, sp := range append([]*obs.SpanNode{it, label, retrain}, it.Children...) {
			if sp.Ev.DurNS <= 0 {
				t.Errorf("iteration %d span %s duration %d, want positive", n, sp.Ev.Phase, sp.Ev.DurNS)
			}
		}
	}

	// The same run must have fed the registry's phase histograms.
	snap := reg.Snapshot()
	if got := snap.Histograms[obs.IterationHistName].Count; got != int64(res.Iterations) {
		t.Errorf("iteration histogram count = %d, want %d", got, res.Iterations)
	}
	for _, phase := range []string{obs.PhaseScore, obs.PhaseLoad, obs.PhaseRetrain, obs.PhaseSelect, obs.PhaseLabel} {
		h := snap.Histograms[obs.PhaseHistName(phase)]
		if h.Count == 0 {
			t.Errorf("phase histogram %s empty", phase)
		}
		if h.Sum <= 0 {
			t.Errorf("phase histogram %s sum = %g", phase, h.Sum)
		}
	}
	if snap.Counters["ide_iterations_total"] != int64(res.Iterations) {
		t.Errorf("ide_iterations_total = %d, want %d", snap.Counters["ide_iterations_total"], res.Iterations)
	}
	if snap.Counters["chunkstore_read_bytes_total"] == 0 {
		t.Error("chunkstore bytes-read counter never incremented")
	}
}

// TestFMeasureGauge checks the named-gauge helper harnesses use to publish
// model accuracy.
func TestFMeasureGauge(t *testing.T) {
	reg := obs.NewRegistry()
	FMeasureGauge(reg).Set(0.75)
	if got := reg.Snapshot().Gauges["ide_fmeasure"]; got != 0.75 {
		t.Errorf("ide_fmeasure = %g", got)
	}
	FMeasureGauge(nil).Set(0.5) // nil registry must be a safe no-op
}
