package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is trace/span identity and context propagation. A site that
// owns a Tracer mints one Trace per logical operation (the server per
// request, a CLI per run) and threads it through context, so spans opened
// anywhere below — engine phases, shard fan-outs, chunk reads, a flush the
// call caused — link back to that operation via parent-span references.
// A context without a trace yields measuring-only spans.

// ctxKey discriminates the context values this package installs.
type ctxKey int

const (
	traceCtxKey ctxKey = iota
	spanCtxKey
)

// Trace groups the spans of one logical operation — for the server, one
// request. It carries the identity every child span inherits and
// accumulates per-phase durations for SLO budget attribution. A nil
// *Trace is valid everywhere and disables emission.
type Trace struct {
	t  *Tracer
	id string
	// seq allocates span ids; span identity is (trace id, span id), so a
	// plain per-trace counter is unique and deterministic.
	seq atomic.Uint64

	mu     sync.Mutex
	phases map[string]time.Duration
}

// NewTrace mints a trace on this tracer. Trace ids are unique per tracer
// (and therefore per trace file): "t000001", "t000002", ... A nil tracer
// returns a nil trace, which every downstream consumer tolerates.
func (t *Tracer) NewTrace() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{
		t:      t,
		id:     "t" + pad6(t.traceSeq.Add(1)),
		phases: make(map[string]time.Duration),
	}
}

// pad6 formats n with the fixed width that keeps trace ids sortable in
// logs and file names.
func pad6(n uint64) string {
	s := strconv.FormatUint(n, 10)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// ID returns the trace id ("" for a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// PhaseTotals returns a copy of the per-phase durations accumulated by
// ended spans whose name is a known phase (IsPhaseName). Nil for a nil
// trace or before any phase span ended.
func (tr *Trace) PhaseTotals() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.phases) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(tr.phases))
	for k, v := range tr.phases {
		out[k] = v
	}
	return out
}

// recordPhase accumulates an ended phase span's duration for budget
// attribution. Only known phase names count: container spans ("step",
// "iteration") and storage spans (shard_*, chunk_read, bcache_get) would
// double-count the phases nested inside or around them.
func (tr *Trace) recordPhase(name string, d time.Duration) {
	if tr == nil || !IsPhaseName(name) {
		return
	}
	tr.mu.Lock()
	tr.phases[name] += d
	tr.mu.Unlock()
}

// newSpan opens a child span (or a root, with parent "").
func (tr *Trace) newSpan(name, parent string) *Span {
	return &Span{
		tr:     tr,
		id:     strconv.FormatUint(tr.seq.Add(1), 10),
		parent: parent,
		name:   name,
		begin:  tr.t.clockNow(),
	}
}

// ContextWithTrace attaches a trace to ctx. A nil trace returns ctx
// unchanged, so disabled tracing adds no context values at all.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey, tr)
}

// TraceFromContext returns the trace attached to ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey).(*Trace)
	return tr
}

// SpanFromContext returns the innermost open span attached to ctx, or
// nil. It is the "is this call traced?" guard — one context lookup — for
// components that build attributes only for an emitting span (per-chunk
// reads, cache lookups, shard attempts).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}

// StartSpan opens a span named name; it is the only way to open one. With
// an open span in ctx the new span is its child; with only a trace in ctx
// it becomes the trace's root; with neither it returns a measuring-only
// span (End still reports the duration, nothing is emitted) and ctx
// unchanged — the disabled path allocates one struct and reads the clock
// twice, nothing more. The returned context carries the new span for
// further nesting (only emitting spans ever ride in a context).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		s := parent.tr.newSpan(name, parent.id)
		return context.WithValue(ctx, spanCtxKey, s), s
	}
	if tr := TraceFromContext(ctx); tr != nil {
		s := tr.newSpan(name, "")
		return context.WithValue(ctx, spanCtxKey, s), s
	}
	return ctx, &Span{name: name, begin: time.Now()}
}

// SetOutcome annotates the span with a terminal outcome ("ok",
// "degraded", "timeout", "error", "cancelled", "hit", "miss", ...). Call
// before End, from the span's own goroutine.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.outcome = outcome
}
