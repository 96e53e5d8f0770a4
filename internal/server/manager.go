package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// Manager hosts concurrent exploration sessions over one shared Index. It
// owns admission control (session cap, per-session queues, server-wide step
// concurrency), the budget arbiter, idle eviction, and graceful drain; the
// HTTP layer in http.go is a thin JSON shell over its methods.
//
// Lock ordering: m.mu (session map) and liveMu (admission counter) are
// leaves held only for map/counter access, never across engine work or
// while a hosted session's mutex is held. A hosted session's h.mu is held
// for the duration of one step (the engine is single-goroutine); the
// arbiter's mutex is a leaf acquired under h.mu during materialize/evict.
type Manager struct {
	cfg Config
	idx *core.Index
	arb *Arbiter
	// scales are the per-dimension distance scales for the DWKNN estimator,
	// fixed by the dataset's bounds.
	scales []float64

	// stepSem bounds steps (and appends) executing at once across all
	// sessions to GOMAXPROCS, so a burst cannot oversubscribe the shared
	// worker pool.
	stepSem chan struct{}

	mu       sync.Mutex
	sessions map[string]*hosted
	idSeq    uint64

	liveMu sync.Mutex
	live   int

	queued atomic.Int64

	draining atomic.Bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	// Oracle-mode sessions need ground truth over the full dataset, which
	// is reconstructed from the chunk store at most once.
	dsOnce sync.Once
	ds     *dataset.Dataset
	dsErr  error

	gLive      *obs.Gauge
	gQueued    *obs.Gauge
	cSteps     *obs.Counter
	cAppends   *obs.Counter
	cEvicted   *obs.Counter
	cResumed   *obs.Counter
	cAdmitRej  *obs.Counter
	cQueueRej  *obs.Counter
	hStep      *obs.Histogram
	hIteration *obs.Histogram

	// tracer mints one trace per create, step and retrieving result
	// request (nil disables tracing); slo accounts every successful step
	// against the interactivity budget.
	tracer *obs.Tracer
	slo    *obs.SLO
}

// NewManager opens the shared index from cfg.StoreDir and prepares the
// serving machinery. Close releases everything.
func NewManager(ctx context.Context, cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.StoreDir == "" && len(cfg.ShardEndpoints) == 0 {
		return nil, fmt.Errorf("server: Config.StoreDir is required (or ShardEndpoints for remote serving)")
	}
	// The parent index never explores itself — sessions run on views — so
	// its own budget is only a placeholder ledger. Nothing prefetches: the
	// server has no I/O limiter to derive θ from.
	idx, err := core.Open(ctx, cfg.StoreDir, core.Options{
		MemoryBudgetBytes: cfg.TotalBudgetBytes,
		Seed:              cfg.Seed,
		Workers:           cfg.Workers,
		Registry:          cfg.Registry,
		BlockCacheBytes:   cfg.BlockCacheBytes,
		Shards:            cfg.Shards,
		ShardDeadline:     cfg.ShardDeadline,
		ShardEndpoints:    cfg.ShardEndpoints,
		Replication:       cfg.Replication,
		HedgeDelay:        cfg.HedgeDelay,
		LiveIngest:        cfg.LiveIngest,
		FollowLive:        cfg.FollowLive,
		FlushInterval:     cfg.FlushInterval,
	})
	if err != nil {
		return nil, err
	}
	m, err := newManagerWithIndex(cfg, idx)
	if err != nil {
		idx.Close()
		return nil, err
	}
	return m, nil
}

// newManagerWithIndex wires a manager over an already-opened parent index
// (which it then owns and closes).
func newManagerWithIndex(cfg Config, idx *core.Index) (*Manager, error) {
	if cfg.SnapshotDir == "" {
		if cfg.StoreDir != "" {
			cfg.SnapshotDir = filepath.Join(cfg.StoreDir, "sessions")
		} else {
			// Remote data plane with no local store directory: evicted
			// sessions still need a home on this machine.
			cfg.SnapshotDir = filepath.Join(os.TempDir(), "uei-sessions")
		}
	}
	if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	arb, err := NewArbiter(cfg.TotalBudgetBytes, cfg.MinSessionBudgetBytes, cfg.Registry)
	if err != nil {
		return nil, err
	}
	// A cache installed on the index joins the arbiter's ledger so its
	// share flexes with session load instead of double-counting memory.
	if bc := idx.BlockCache(); bc != nil && cfg.BlockCacheBytes > 0 {
		if err := arb.AttachCache(bc, cfg.BlockCacheBytes); err != nil {
			return nil, err
		}
	}
	reg := cfg.Registry
	m := &Manager{
		cfg:         cfg,
		idx:         idx,
		arb:         arb,
		scales:      idx.Bounds().Widths(),
		stepSem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		sessions:    make(map[string]*hosted),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		gLive:       reg.Gauge("uei_server_sessions_live"),
		gQueued:     reg.Gauge("uei_server_queue_depth"),
		cSteps:      reg.Counter("uei_server_steps_total"),
		cAppends:    reg.Counter("uei_server_appends_total"),
		cEvicted:    reg.Counter("uei_server_evictions_total"),
		cResumed:    reg.Counter("uei_server_resumes_total"),
		cAdmitRej:   reg.Counter("uei_server_admission_rejects_total"),
		cQueueRej:   reg.Counter("uei_server_queue_rejects_total"),
		hStep:       reg.Histogram("uei_server_step_seconds", nil),
		hIteration:  reg.Histogram(obs.IterationHistName, nil),
		tracer:      cfg.Tracer,
		slo:         obs.NewSLO(reg, cfg.SLOBudget, 0),
	}
	if cfg.IdleTimeout > 0 {
		go m.janitor()
	} else {
		close(m.janitorDone)
	}
	return m, nil
}

// Registry returns the metrics registry everything is wired to.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Registry }

// SLO returns the manager's step-latency accountant.
func (m *Manager) SLO() *obs.SLO { return m.slo }

// Index exposes the shared parent index (for stats; do not explore on it).
func (m *Manager) Index() *core.Index { return m.idx }

// SessionInfo is the externally visible state of a hosted session.
type SessionInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	State       string  `json:"state"`
	Done        bool    `json:"done"`
	LabelsUsed  int     `json:"labels_used"`
	MaxLabels   int     `json:"max_labels"`
	Iterations  int     `json:"iterations"`
	BudgetBytes int64   `json:"budget_bytes"`
	Steps       int     `json:"steps"`
	MeanStepMs  float64 `json:"mean_step_ms"`
	PendingID   *uint32 `json:"pending_id,omitempty"`
}

// infoLocked snapshots a session's info; the caller holds h.mu.
func (m *Manager) infoLocked(h *hosted) SessionInfo {
	info := SessionInfo{
		ID:          h.id,
		Name:        h.spec.Name,
		State:       h.state.String(),
		Done:        h.done,
		LabelsUsed:  h.labelsUsedLocked(),
		MaxLabels:   h.spec.MaxLabels,
		Iterations:  h.iterationsLocked(),
		BudgetBytes: m.arb.Grant(h.id),
		Steps:       h.steps,
	}
	if h.steps > 0 {
		info.MeanStepMs = h.stepTime.Seconds() * 1e3 / float64(h.steps)
	}
	if h.sess != nil {
		if p := h.sess.Pending(); p != nil {
			id := p.ID
			info.PendingID = &id
		}
	}
	return info
}

// reserveLive admits one more live session under the cap.
func (m *Manager) reserveLive() error {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	if m.live >= m.cfg.MaxSessions {
		return fmt.Errorf("server: %d live sessions (cap %d): %w", m.live, m.cfg.MaxSessions, ErrSaturated)
	}
	m.live++
	m.gLive.SetInt(int64(m.live))
	return nil
}

// releaseLive returns a live slot (on evict or delete).
func (m *Manager) releaseLive() {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	m.live--
	m.gLive.SetInt(int64(m.live))
}

// Create admits and materializes a new session. It fails with ErrSaturated
// (HTTP 503) when the session cap is reached or the arbiter cannot carve
// out a viable budget share.
func (m *Manager) Create(ctx context.Context, spec SessionSpec) (info SessionInfo, err error) {
	ctx, _, root := m.startTrace(ctx, "create")
	defer func() {
		root.SetOutcome(requestOutcome(ctx, err))
		root.End(nil)
	}()
	if m.draining.Load() {
		return SessionInfo{}, ErrDraining
	}
	if spec.MaxLabels == 0 {
		spec.MaxLabels = defaultMaxLabels
	}
	if spec.MaxLabels < 0 {
		return SessionInfo{}, fmt.Errorf("max_labels must be positive: %w", errBadRequest)
	}
	if spec.BatchSize < 0 || spec.SampleSize < 0 {
		return SessionInfo{}, fmt.Errorf("batch_size and sample_size must not be negative: %w", errBadRequest)
	}

	id := fmt.Sprintf("s%06d", atomic.AddUint64(&m.idSeq, 1))
	if err := m.reserveLive(); err != nil {
		m.cAdmitRej.Inc()
		return SessionInfo{}, err
	}
	grant, err := m.arb.Admit(id)
	if err != nil {
		m.releaseLive()
		m.cAdmitRej.Inc()
		return SessionInfo{}, err
	}
	h := &hosted{
		id:       id,
		spec:     spec,
		created:  time.Now(),
		lastUsed: time.Now(),
		tickets:  make(chan struct{}, m.cfg.MaxQueuedSteps),
	}
	// The session is not published yet, so holding h.mu here is purely for
	// the materialize contract.
	h.mu.Lock()
	err = m.materializeLocked(ctx, h, grant)
	h.mu.Unlock()
	if err != nil {
		m.arb.Release(id)
		m.releaseLive()
		return SessionInfo{}, err
	}
	m.mu.Lock()
	m.sessions[id] = h
	m.mu.Unlock()
	h.mu.Lock()
	info = m.infoLocked(h)
	h.mu.Unlock()
	return info, nil
}

// startTrace mints the trace of one request and opens its root span; ctx
// carries both to everything the request calls. With tracing disabled the
// trace is nil, ctx is returned unchanged and the span only measures.
func (m *Manager) startTrace(ctx context.Context, root string) (context.Context, *obs.Trace, *obs.Span) {
	tr := m.tracer.NewTrace()
	ctx, span := obs.StartSpan(obs.ContextWithTrace(ctx, tr), root)
	return ctx, tr, span
}

// requestOutcome names how a request ended, for its root span: turned
// away by admission, given up on by its caller, failed, or served.
func requestOutcome(ctx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrQueueFull):
		return "rejected"
	case ctx.Err() != nil:
		return "cancelled"
	default:
		return "error"
	}
}

// lookup finds a session by id.
func (m *Manager) lookup(id string) (*hosted, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, ErrUnknownSession)
	}
	return h, nil
}

// Get returns a session's info.
func (m *Manager) Get(id string) (SessionInfo, error) {
	h, err := m.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == stateClosed {
		return SessionInfo{}, fmt.Errorf("session %q: %w", id, ErrUnknownSession)
	}
	return m.infoLocked(h), nil
}

// List returns every session's info, ordered by id.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	hs := make([]*hosted, 0, len(m.sessions))
	for _, h := range m.sessions {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	out := make([]SessionInfo, 0, len(hs))
	for _, h := range hs {
		h.mu.Lock()
		if h.state != stateClosed {
			out = append(out, m.infoLocked(h))
		}
		h.mu.Unlock()
	}
	return out
}

// StepRequest carries the optional label answering the session's
// outstanding proposal.
type StepRequest struct {
	// Label answers the outstanding proposal of an interactive session:
	// "positive" or "negative".
	Label string `json:"label,omitempty"`
}

// StepResponse is one step's outcome: a proposal awaiting the client's
// label (interactive sessions), a completed iteration (oracle sessions), or
// the done marker with the final result summary.
type StepResponse struct {
	ID         string         `json:"id"`
	Done       bool           `json:"done"`
	Proposal   *ProposalJSON  `json:"proposal,omitempty"`
	Iteration  *IterationJSON `json:"iteration,omitempty"`
	LabelsUsed int            `json:"labels_used"`
	Iterations int            `json:"iterations"`
	// Positives is the final result cardinality, set when Done.
	Positives int `json:"positives,omitempty"`
	// Degraded marks steps that could not load their most uncertain cell
	// (its shard failed or missed the deadline) and explored another
	// cell or the resident region instead; the selection is still valid.
	Degraded bool `json:"degraded,omitempty"`
	// TraceID identifies this step's trace in the server's trace stream
	// (set only when the server runs with tracing enabled; also returned
	// as the X-Uei-Trace-Id response header).
	TraceID string `json:"trace_id,omitempty"`
}

// ProposalJSON is a label solicitation on the wire.
type ProposalJSON struct {
	ID        uint32    `json:"id"`
	Row       []float64 `json:"row"`
	Score     float64   `json:"score"`
	Pool      int       `json:"pool"`
	Bootstrap bool      `json:"bootstrap"`
	Iteration int       `json:"iteration"`
	Degraded  bool      `json:"degraded,omitempty"`
}

// IterationJSON is a completed iteration on the wire.
type IterationJSON struct {
	Iteration  int     `json:"iteration"`
	SelectedID uint32  `json:"selected_id"`
	Label      string  `json:"label"`
	Score      float64 `json:"score"`
	Pool       int     `json:"pool"`
	Millis     float64 `json:"millis"`
	Retrained  bool    `json:"retrained"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// Step advances a session by one interaction. The admission path is: a
// per-session queue ticket (ErrQueueFull when the client has too many
// requests in flight), then a server-wide concurrency slot (bounded wait,
// honoring ctx), then the session mutex. Evicted sessions are transparently
// resumed, which re-enters admission (ErrSaturated when the server has no
// room to bring the session back yet).
//
// One trace per step request: the root "step" span opens before admission,
// so it — and the SLO observation taken from it — covers the queue wait,
// the session lock wait, a possible snapshot resume, and the engine
// interaction, and every child span below — queue_wait, iteration phases,
// shard fan-outs, chunk reads — links back to this request.
func (m *Manager) Step(ctx context.Context, id string, req StepRequest) (StepResponse, error) {
	ctx, tr, root := m.startTrace(ctx, obs.StepRoot)
	resp, err := m.admitStep(ctx, id, req)
	outcome := requestOutcome(ctx, err)
	if err == nil && resp.Degraded {
		outcome = "degraded"
	}
	root.SetOutcome(outcome)
	d := root.End(nil)
	if err == nil {
		m.slo.ObserveStep(d, tr.PhaseTotals())
		resp.TraceID = tr.ID()
	}
	return resp, err
}

// admitStep is the admission section of Step: the per-session ticket and
// the server-wide slot, timed as one "queue_wait" span, then the step
// itself. The root span must end on every exit path, so the section lives
// in its own function.
func (m *Manager) admitStep(ctx context.Context, id string, req StepRequest) (StepResponse, error) {
	if m.draining.Load() {
		return StepResponse{}, ErrDraining
	}
	h, err := m.lookup(id)
	if err != nil {
		return StepResponse{}, err
	}
	_, wait := obs.StartSpan(ctx, obs.PhaseQueueWait)
	select {
	case h.tickets <- struct{}{}:
		m.gQueued.SetInt(m.queued.Add(1))
	default:
		m.cQueueRej.Inc()
		wait.SetOutcome("rejected")
		wait.End(nil)
		return StepResponse{}, fmt.Errorf("session %q has %d steps in flight: %w", id, cap(h.tickets), ErrQueueFull)
	}
	defer func() {
		<-h.tickets
		m.gQueued.SetInt(m.queued.Add(-1))
	}()
	select {
	case m.stepSem <- struct{}{}:
	case <-ctx.Done():
		wait.SetOutcome("cancelled")
		wait.End(nil)
		return StepResponse{}, ctx.Err()
	}
	defer func() { <-m.stepSem }()
	wait.End(nil)
	return m.lockedStep(ctx, h, req)
}

// lockedStep is the session-mutex section of Step: closed/evicted state
// checks, transparent resume, the engine interaction, and per-step
// metrics.
func (m *Manager) lockedStep(ctx context.Context, h *hosted, req StepRequest) (StepResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == stateClosed {
		return StepResponse{}, fmt.Errorf("session %q: %w", h.id, ErrUnknownSession)
	}
	if h.state == stateEvicted && !h.done {
		if err := m.resumeLocked(ctx, h); err != nil {
			return StepResponse{}, err
		}
	}
	h.lastUsed = time.Now()
	start := time.Now()
	resp, err := m.stepLocked(ctx, h, req)
	if err == nil {
		d := time.Since(start)
		h.steps++
		h.stepTime += d
		h.lastUsed = time.Now()
		m.cSteps.Inc()
		m.hStep.ObserveDuration(d)
	}
	return resp, err
}

// resumeLocked brings an evicted session back: re-admission (live slot +
// budget share) and re-materialization from its snapshot.
func (m *Manager) resumeLocked(ctx context.Context, h *hosted) error {
	if err := m.reserveLive(); err != nil {
		m.cAdmitRej.Inc()
		return err
	}
	grant, err := m.arb.Admit(h.id)
	if err != nil {
		m.releaseLive()
		m.cAdmitRej.Inc()
		return err
	}
	if err := m.materializeLocked(ctx, h, grant); err != nil {
		m.arb.Release(h.id)
		m.releaseLive()
		return err
	}
	m.cResumed.Inc()
	return nil
}

// stepLocked runs one interaction against a live session's engine.
func (m *Manager) stepLocked(ctx context.Context, h *hosted, req StepRequest) (StepResponse, error) {
	if h.done {
		return m.doneResponseLocked(h), nil
	}
	sess := h.sess
	if req.Label != "" {
		if h.external == nil {
			return StepResponse{}, fmt.Errorf("session %q labels itself (oracle mode): %w", h.id, errBadRequest)
		}
		label, err := parseLabel(req.Label)
		if err != nil {
			return StepResponse{}, err
		}
		// A resume dropped the proposal the client is answering; the engine
		// re-derives it deterministically from the same labeled set and
		// sample before the label is applied.
		if sess.Pending() == nil {
			if _, err := sess.Propose(ctx); err != nil {
				return m.proposeErrorLocked(ctx, h, err)
			}
		}
		if _, err := sess.Feed(ctx, label); err != nil {
			return StepResponse{}, err
		}
	}
	for {
		p, err := sess.Propose(ctx)
		if err != nil {
			return m.proposeErrorLocked(ctx, h, err)
		}
		if h.external != nil {
			return StepResponse{
				ID: h.id,
				Proposal: &ProposalJSON{
					ID: p.ID, Row: p.Row, Score: p.Score, Pool: p.Pool,
					Bootstrap: p.Bootstrap, Iteration: p.Iteration,
					Degraded: p.Degraded,
				},
				LabelsUsed: h.labelsUsedLocked(),
				Iterations: h.iterationsLocked(),
				Degraded:   p.Degraded,
			}, nil
		}
		// Oracle mode: the simulated user answers immediately; one selection
		// iteration per step (bootstrap resolutions return nil info and the
		// loop continues until a real iteration lands).
		info, err := sess.Resolve(ctx)
		if err != nil {
			return StepResponse{}, err
		}
		if info == nil {
			continue
		}
		return StepResponse{
			ID: h.id,
			Iteration: &IterationJSON{
				Iteration:  h.itersBase + info.Iteration,
				SelectedID: info.SelectedID,
				Label:      labelString(info.Label),
				Score:      info.Score,
				Pool:       info.PoolSize,
				Millis:     info.ResponseTime.Seconds() * 1e3,
				Retrained:  info.Retrained,
				Degraded:   info.Degraded,
			},
			LabelsUsed: h.labelsUsedLocked(),
			Iterations: h.iterationsLocked(),
			Degraded:   info.Degraded,
		}, nil
	}
}

// proposeErrorLocked handles a Propose failure: ErrExplorationDone runs
// result retrieval once, caches it, and returns the terminal response; any
// other error passes through.
func (m *Manager) proposeErrorLocked(ctx context.Context, h *hosted, err error) (StepResponse, error) {
	if !errorsIsDone(err) {
		return StepResponse{}, err
	}
	res, ferr := h.sess.Finish(ctx)
	if ferr != nil {
		return StepResponse{}, ferr
	}
	h.done = true
	h.result = res
	return m.doneResponseLocked(h), nil
}

// doneResponseLocked summarizes a finished session.
func (m *Manager) doneResponseLocked(h *hosted) StepResponse {
	resp := StepResponse{
		ID:         h.id,
		Done:       true,
		LabelsUsed: h.labelsUsedLocked(),
		Iterations: h.iterationsLocked(),
	}
	if h.result != nil {
		resp.Positives = len(h.result.Positive)
	}
	return resp
}

// AppendRequest carries rows to ingest into a live store.
type AppendRequest struct {
	Rows [][]float64 `json:"rows"`
}

// AppendResponse acknowledges durably staged rows. The rows are
// WAL-fsynced when the response is written; they become read-visible to
// sessions at the next committed epoch (never to a running iteration).
type AppendResponse struct {
	// FirstID is the global row id assigned to the first appended row;
	// the batch occupies [FirstID, FirstID+Count).
	FirstID uint32 `json:"first_id"`
	Count   int    `json:"count"`
	// TotalRows counts every durably appended row (flushed or not).
	TotalRows int `json:"total_rows"`
	// Epoch is the currently committed manifest epoch.
	Epoch uint64 `json:"epoch"`
}

// Append durably stages rows in the live write store. It shares the
// server-wide step-concurrency semaphore with Step, so an ingest burst
// cannot oversubscribe the worker pool under exploring sessions, and is
// rejected while draining (in-flight appends finish before the store
// closes, because HTTP shutdown completes before Manager.Close runs).
func (m *Manager) Append(ctx context.Context, req AppendRequest) (AppendResponse, error) {
	if m.draining.Load() {
		return AppendResponse{}, ErrDraining
	}
	if len(req.Rows) == 0 {
		return AppendResponse{}, fmt.Errorf("append requires at least one row: %w", errBadRequest)
	}
	live := m.idx.Live()
	if live == nil {
		return AppendResponse{}, fmt.Errorf("store is not a live-ingest layout: %w", core.ErrNotLive)
	}
	select {
	case m.stepSem <- struct{}{}:
	case <-ctx.Done():
		return AppendResponse{}, ctx.Err()
	}
	defer func() { <-m.stepSem }()
	first, err := m.idx.Append(ctx, req.Rows)
	if err != nil {
		return AppendResponse{}, err
	}
	m.cAppends.Inc()
	return AppendResponse{
		FirstID:   first,
		Count:     len(req.Rows),
		TotalRows: live.TotalRows(),
		Epoch:     live.Epoch(),
	}, nil
}

// ResultInfo is the final (or current) retrieval outcome.
type ResultInfo struct {
	ID         string   `json:"id"`
	Done       bool     `json:"done"`
	LabelsUsed int      `json:"labels_used"`
	Iterations int      `json:"iterations"`
	Positive   []uint32 `json:"positive"`
}

// Result returns the session's retrieved result set. Finished sessions
// serve the cached final result (even while evicted); live unfinished
// sessions run retrieval with the current model, which requires at least
// one model fit (learn.ErrNotFitted otherwise) and no outstanding proposal.
func (m *Manager) Result(ctx context.Context, id string) (ResultInfo, error) {
	h, err := m.lookup(id)
	if err != nil {
		return ResultInfo{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == stateClosed {
		return ResultInfo{}, fmt.Errorf("session %q: %w", id, ErrUnknownSession)
	}
	if h.done && h.result != nil {
		return ResultInfo{
			ID: h.id, Done: true,
			LabelsUsed: h.labelsUsedLocked(),
			Iterations: h.iterationsLocked(),
			Positive:   h.result.Positive,
		}, nil
	}
	ctx, _, root := m.startTrace(ctx, "result")
	res, err := m.retrieveLocked(ctx, h)
	root.SetOutcome(requestOutcome(ctx, err))
	root.End(nil)
	if err != nil {
		return ResultInfo{}, err
	}
	return ResultInfo{
		ID: h.id, Done: h.done,
		LabelsUsed: h.labelsUsedLocked(),
		Iterations: h.iterationsLocked(),
		Positive:   res.Positive,
	}, nil
}

// retrieveLocked runs result retrieval with an unfinished session's
// current model, resuming the session first when it is evicted.
func (m *Manager) retrieveLocked(ctx context.Context, h *hosted) (*ide.Result, error) {
	if h.state == stateEvicted {
		if err := m.resumeLocked(ctx, h); err != nil {
			return nil, err
		}
	}
	h.lastUsed = time.Now()
	if p := h.sess.Pending(); p != nil {
		return nil, fmt.Errorf("session %q has an unresolved proposal for tuple %d: %w", h.id, p.ID, errBadRequest)
	}
	return h.sess.Finish(ctx)
}

// Delete closes a session and removes its snapshot.
func (m *Manager) Delete(id string) error {
	h, err := m.lookup(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.state == stateClosed {
		h.mu.Unlock()
		return fmt.Errorf("session %q: %w", id, ErrUnknownSession)
	}
	if h.state == stateLive {
		h.sess.Release()
		h.view.Close()
		h.view = nil
		h.sess = nil
		h.external = nil
		m.arb.Release(h.id)
		m.releaseLive()
	}
	snap := h.snapPath
	h.snapPath = ""
	h.state = stateClosed
	h.mu.Unlock()
	if snap != "" {
		_ = os.Remove(snap)
	}
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	return nil
}

// janitor evicts sessions idle past the configured timeout. Sessions in
// the middle of a step hold their mutex; TryLock skips them — by
// definition they are not idle.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	period := m.cfg.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		hs := make([]*hosted, 0, len(m.sessions))
		for _, h := range m.sessions {
			hs = append(hs, h)
		}
		m.mu.Unlock()
		for _, h := range hs {
			if !h.mu.TryLock() {
				continue
			}
			if h.state == stateLive && time.Since(h.lastUsed) >= m.cfg.IdleTimeout {
				_ = m.evictLocked(h)
			}
			h.mu.Unlock()
		}
	}
}

// Close drains the manager: new work is rejected (ErrDraining), in-flight
// steps finish (their session mutexes are awaited), every live session is
// evicted to its snapshot, and the shared index closes. The manager is
// unusable afterwards.
func (m *Manager) Close(ctx context.Context) error {
	if !m.draining.CompareAndSwap(false, true) {
		return nil
	}
	select {
	case <-m.janitorDone:
	default:
		close(m.janitorStop)
		<-m.janitorDone
	}
	m.mu.Lock()
	hs := make([]*hosted, 0, len(m.sessions))
	for _, h := range m.sessions {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	var firstErr error
	for _, h := range hs {
		h.mu.Lock() // waits for the session's in-flight step
		if err := m.evictLocked(h); err != nil && firstErr == nil {
			firstErr = err
		}
		h.mu.Unlock()
		if err := ctx.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.idx.Close()
	return firstErr
}

// dataset lazily reconstructs the full dataset from the chunk store (used
// only by oracle-mode sessions, which need ground truth).
func (m *Manager) dataset(ctx context.Context) (*dataset.Dataset, error) {
	m.dsOnce.Do(func() {
		ids := make([]uint32, m.idx.RowCount())
		for i := range ids {
			ids[i] = uint32(i)
		}
		rows, err := m.idx.FetchRows(ctx, ids)
		if err != nil {
			m.dsErr = fmt.Errorf("server: reconstruct dataset: %w", err)
			return
		}
		ds := dataset.New(dataset.MustSchema(m.idx.Columns()...), len(rows))
		for _, r := range rows {
			if _, err := ds.Append(r.Vals); err != nil {
				m.dsErr = fmt.Errorf("server: reconstruct dataset: %w", err)
				return
			}
		}
		m.ds = ds
	})
	return m.ds, m.dsErr
}

// parseLabel maps the wire label to the oracle's.
func parseLabel(s string) (oracle.Label, error) {
	switch s {
	case "positive":
		return oracle.Positive, nil
	case "negative":
		return oracle.Negative, nil
	default:
		return oracle.Negative, fmt.Errorf("label %q must be \"positive\" or \"negative\": %w", s, errBadRequest)
	}
}

// labelString is parseLabel's inverse.
func labelString(l oracle.Label) string {
	if l == oracle.Positive {
		return "positive"
	}
	return "negative"
}

// errorsIsDone reports the engine's exploration-complete sentinel.
func errorsIsDone(err error) bool { return errors.Is(err, ide.ErrExplorationDone) }
