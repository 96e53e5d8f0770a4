package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names emitted by the instrumented stack. Components outside this
// list may emit their own; FormatSummary keys on the registry's
// phase_<name>_seconds histograms, not on this enumeration.
const (
	PhasePrepare   = "prepare"   // provider preparation (sample fill) + seeding
	PhaseBootstrap = "bootstrap" // initial random example acquisition
	PhaseScore     = "score"     // symbolic-index re-scoring (Algorithm 2 line 17)
	PhaseLoad      = "load"      // chunk-store region load / prefetch wait
	PhaseSwap      = "swap"      // cache region install
	PhaseSelect    = "select"    // candidate pool argmax scan
	PhaseLabel     = "label"     // oracle / user labeling
	PhaseRetrain   = "retrain"   // classifier refit
	PhaseRetrieve  = "retrieve"  // final result retrieval
	// PhaseQueueWait is the server's admission wait (per-session ticket +
	// step-concurrency slot). It is a phase: it overlaps no other phase, and
	// a step that misses its budget in the queue must be attributable to it.
	PhaseQueueWait = "queue_wait"
)

// Write-path span names. These are NOT budget-attribution phases: they
// run on the stream subsystem's flusher and compactor goroutines
// (measuring-only there) or nested under the traced call that forced them
// (a synchronous Flush), so they stay out of phaseNames — adding them
// would double-attribute wall time in the SLO breakdown.
const (
	SpanFlush   = "flush"   // memtable → segment flush (stream)
	SpanCompact = "compact" // segment merge / retirement (stream)
)

// SpanClassify is result retrieval's decision pass over the scanned rows.
// It nests inside the retrieve phase, beside the scan's shard_retrieve
// legs, so it is not a phase either; its attributes (rows, settled,
// selected, positive) feed the report's SCORE SKIPPING section.
const SpanClassify = "classify"

// phaseNames is the closed set IsPhaseName recognizes: the spans whose
// durations are additive within a step. Container spans ("step",
// "iteration") and storage spans (shard_*, chunk_read, bcache_get) nest
// phases or nest inside them, so counting both would double-attribute.
var phaseNames = map[string]bool{
	PhasePrepare:   true,
	PhaseBootstrap: true,
	PhaseScore:     true,
	PhaseLoad:      true,
	PhaseSwap:      true,
	PhaseSelect:    true,
	PhaseLabel:     true,
	PhaseRetrain:   true,
	PhaseRetrieve:  true,
	PhaseQueueWait: true,
}

// IsPhaseName reports whether name is a budget-attribution phase: a span
// whose duration may be summed with its sibling phases to account for a
// step's wall time (SLO attribution and the uei-trace breakdown rely on
// this set being non-overlapping within a trace).
func IsPhaseName(name string) bool { return phaseNames[name] }

// PhaseHistName returns the registry histogram name for a phase, the
// naming contract FormatSummary scans for.
func PhaseHistName(phase string) string { return "phase_" + phase + "_seconds" }

// Event is one JSON Lines trace record: a span of one trace. Spans carry
// start offsets relative to tracer creation and nanosecond durations, so
// even sub-microsecond phases have positive extent. Every event a Tracer
// writes carries TraceID and SpanID (and ParentID unless it is the trace's
// root); ReadTrace rejects a line without them.
type Event struct {
	// Type is "span".
	Type string `json:"type"`
	// TraceID groups the spans of one traced operation (one server
	// request, one CLI run).
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this span within its trace.
	SpanID string `json:"span_id,omitempty"`
	// ParentID is the enclosing span's SpanID ("" for a trace root).
	ParentID string `json:"parent_id,omitempty"`
	// Phase names the span ("step", "iteration", "score", "load", ...).
	Phase string `json:"phase,omitempty"`
	// Outcome is the span's terminal annotation ("ok", "timeout",
	// "degraded", ...), set via Span.SetOutcome.
	Outcome string `json:"outcome,omitempty"`
	// StartNS is the span start, in nanoseconds since the trace began.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries free-form numeric attributes (bytes read, pool size,
	// cell id, hit/miss flags). encoding/json sorts the keys, keeping the
	// emitted lines deterministic for a fixed clock.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Tracer is the sink traces write to: a writer taking one JSON object per
// line, the clock spans read, and the allocator of trace ids. Only the
// sites that mint a trace (NewTrace) hold one; everything below them opens
// spans with StartSpan on the context the trace rides in. All methods are
// nil-receiver safe: a nil *Tracer mints nil traces, which disables
// emission at zero cost beyond a branch.
//
// One mutex guards the encoder, so concurrent sessions (the serving path)
// interleave whole lines, never bytes; when the writer exposes
// Flush() error (a bufio.Writer), every event is flushed through it so a
// crash loses at most the line being written.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	now   func() time.Time
	start time.Time
	err   error
	// traceSeq allocates NewTrace ids.
	traceSeq atomic.Uint64
}

// flusher is the optional writer interface emitLocked pushes each event
// through (bufio.Writer implements it).
type flusher interface{ Flush() error }

// NewTracer wraps a writer. The caller owns the writer's lifecycle
// (flush/close).
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, now: time.Now}
	t.start = t.now()
	return t
}

// SetNow replaces the clock, for deterministic tests. It rebases the trace
// start on the new clock.
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.start = now()
}

// Err returns the first write error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// clockNow reads the tracer clock.
func (t *Tracer) clockNow() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

// Span is an open timing. End always returns the measured duration. A
// span is in one of two modes: emitting (tr non-nil: StartSpan found a
// trace on its context, End writes one event with the trace and span ids
// and the parent reference) or measuring-only (tr nil: no emission).
// Spans are single-goroutine: start, SetOutcome, and End happen on the
// goroutine doing the spanned work.
type Span struct {
	tr      *Trace
	id      string
	parent  string
	name    string
	begin   time.Time
	outcome string
}

// End closes the span with optional attributes and returns its duration.
func (s *Span) End(attrs map[string]float64) time.Duration {
	if s == nil {
		return 0
	}
	if s.tr == nil {
		return time.Since(s.begin)
	}
	t := s.tr.t
	t.mu.Lock()
	d := t.now().Sub(s.begin)
	t.emitLocked(Event{
		Type:     "span",
		TraceID:  s.tr.id,
		SpanID:   s.id,
		ParentID: s.parent,
		Phase:    s.name,
		Outcome:  s.outcome,
		StartNS:  s.begin.Sub(t.start).Nanoseconds(),
		DurNS:    d.Nanoseconds(),
		Attrs:    attrs,
	})
	t.mu.Unlock()
	s.tr.recordPhase(s.name, d)
	return d
}

// emitLocked writes one event line; the first failure is sticky and
// silences the trace (exploration must not die because a trace disk
// filled). When the writer buffers (flusher), the event is flushed
// through immediately so concurrent sessions' traces survive a crash.
func (t *Tracer) emitLocked(e Event) {
	if t.err != nil || t.w == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	line = append(line, '\n')
	if _, err := t.w.Write(line); err != nil {
		t.err = err
		return
	}
	if f, ok := t.w.(flusher); ok {
		if err := f.Flush(); err != nil {
			t.err = err
		}
	}
}
