package ide

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// ErrNoCandidates is returned when the unlabeled candidate pool is empty
// at a point where the session needs one (initial example acquisition). It
// is re-exported by the facade for errors.Is across the API boundary.
var ErrNoCandidates = errors.New("ide: no unlabeled candidates available")

// ErrExplorationDone is returned by Propose when the session has nothing
// left to solicit — the label budget is spent or the unlabeled pool ran
// dry. It signals the caller to move on to Finish (result retrieval). It
// is re-exported by the facade for errors.Is across the API boundary.
var ErrExplorationDone = errors.New("ide: exploration complete")

// Config parameterizes an exploration session.
type Config struct {
	// BatchSize is B of Algorithm 1: the model retrains after every B new
	// labels. Zero selects 1 (retrain on every label, the most
	// interactive setting).
	BatchSize int
	// MaxLabels bounds user effort; the session stops after this many
	// solicited labels. Required.
	MaxLabels int
	// EstimatorFactory builds the predictive model used as uncertainty
	// estimator (Table 1: DWKNN). Required.
	EstimatorFactory func() learn.Classifier
	// Strategy is the query strategy (Table 1: uncertainty sampling via
	// least confidence). Required.
	Strategy al.Scorer
	// Seed drives the initial random example acquisition.
	Seed int64
	// SeedWithPositive bootstraps the labeled set with one known-relevant
	// example, modeling the standard IDE assumption that the user shows
	// one instance of what they seek (AIDE and DSM do the same). Without
	// it, random acquisition over a 0.1%-selectivity region wastes ~1000
	// labels before the first positive.
	SeedWithPositive bool
	// SeedCount asks for this many bootstrap positives (default 1) when
	// SeedWithPositive is set. Counts above 1 require a labeler
	// implementing MultiPositiveSeeder and serve disjunctive interests:
	// one example per relevant region keeps the model from collapsing
	// onto a single mode.
	SeedCount int
	// OnIteration, when set, observes every completed iteration.
	OnIteration func(it IterationInfo)
	// AfterPrepare, when set, runs once after provider preparation,
	// initial-example acquisition, and the first model fit — i.e. at the
	// boundary between initialization and the interactive loop. Experiment
	// harnesses snapshot I/O counters here.
	AfterPrepare func()
	// BeforeRetrieve, when set, runs after the last iteration and before
	// result retrieval — the other boundary of the interactive loop.
	BeforeRetrieve func()
	// Registry, when set, receives the engine's instruments: the
	// ide_iteration_seconds latency histogram, phase histograms for
	// select/label/retrain, and ide_iterations_total / ide_labels_total
	// counters. The ide_fmeasure gauge is defined here too, for harnesses
	// that evaluate accuracy (see FMeasureGauge).
	Registry *obs.Registry
}

// FMeasureGauge returns the registry gauge harnesses set after each
// accuracy evaluation; it keeps the metric name in one place.
func FMeasureGauge(reg *obs.Registry) *obs.Gauge { return reg.Gauge("ide_fmeasure") }

// IterationInfo describes one completed exploration iteration.
type IterationInfo struct {
	// Iteration counts selection iterations, starting at 1.
	Iteration int
	// LabelsGiven is the cumulative number of solicited labels.
	LabelsGiven int
	// SelectedID is the tuple chosen for labeling.
	SelectedID uint32
	// Label is the oracle's answer.
	Label oracle.Label
	// Score is the strategy score of the selected tuple.
	Score float64
	// PoolSize is the number of candidates scanned.
	PoolSize int
	// ResponseTime is the user-perceived latency of the iteration:
	// provider preparation + candidate scan + (amortized) retraining.
	ResponseTime time.Duration
	// Retrained reports whether the model was refitted this iteration.
	Retrained bool
	// Degraded reports that the provider completed this iteration in a
	// reduced mode — no replica of the shard owning the most uncertain
	// cell answered its load, so the UEI index fell back to the best cell
	// another shard owns, or kept the resident region — and the selection
	// may be less informed than usual.
	Degraded bool
	// Model is the current predictive model (read-only; evaluate, don't
	// mutate).
	Model learn.Classifier
}

// Result summarizes a finished session.
type Result struct {
	// LabelsUsed is the total user effort including initial examples.
	LabelsUsed int
	// Iterations is the number of selection iterations run.
	Iterations int
	// Positive is the final retrieved result set (Algorithm 1 line 13).
	Positive []uint32
	// Model is the final trained model.
	Model learn.Classifier
}

// Session runs Algorithm 1 (equivalently Algorithm 2 lines 12-27) over a
// Provider.
type Session struct {
	cfg      Config
	provider Provider
	labeler  Labeler
	rng      *rand.Rand

	// Engine instruments (nil without Config.Registry; nil-safe no-ops).
	hIteration *obs.Histogram
	hSelect    *obs.Histogram
	hLabel     *obs.Histogram
	hRetrain   *obs.Histogram
	mIters     *obs.Counter
	mLabels    *obs.Counter
	mRetrains  *obs.Counter
	// Selection-pass tallies: pool rows whose k-NN scan was carried over
	// from the previous selection, rows scanned from scratch, and carried
	// rows a new label changed.
	mCarried *obs.Counter
	mScanned *obs.Counter
	mChanged *obs.Counter
	gState   *obs.Gauge

	labeledIDs []uint32
	labeledX   [][]float64
	labeledY   []int
	model      learn.Classifier
	// poolTab keeps every resident candidate's k nearest labeled rows between
	// selections (DWKNN over a provider with a resident pool only), so a
	// selection after one new label costs one distance per candidate.
	// poolBytes is its share of the uei_score_state_bytes gauge, lastPass
	// the latest selection's tally. The memory is released when the session
	// is done, finished or Released; it is not part of any memory budget.
	poolTab   learn.NeighborTable
	poolBytes int64
	lastPass  learn.NeighborPass
	// resumed marks sessions restored from a Snapshot; Run then reports
	// the pre-labeled tuples to the provider and skips acquisition when
	// both classes are already present.
	resumed bool

	// Step-machine state. The loop is a state machine so it can be driven
	// step-wise (Propose / Resolve / Feed / Finish) — e.g. over HTTP, where
	// the label arrives in a later request — as well as synchronously by
	// Run, which is implemented on top of the same transitions.
	phase             sessionPhase
	iteration         int
	sinceRetrain      int
	bootstrapAttempts int
	pending           *Proposal
	iterStart         time.Time
}

// sessionPhase names the step machine's states.
type sessionPhase int

const (
	// phaseNew: provider not prepared yet; the first Propose runs
	// preparation, snapshot replay, and positive seeding.
	phaseNew sessionPhase = iota
	// phaseBootstrap: initial example acquisition (Algorithm 2 line 13) —
	// Propose draws uniform random candidates until L holds both classes.
	phaseBootstrap
	// phaseReady: model fitted; Propose runs a selection iteration.
	phaseReady
	// phaseDone: budget spent or pool exhausted; only Finish remains.
	phaseDone
)

// Proposal is one label solicitation: the tuple the engine wants the user
// to judge next. Selection proposals carry the strategy score and pool
// size; bootstrap proposals (initial example acquisition) are uniform
// random draws made before the first model exists.
type Proposal struct {
	// ID is the solicited tuple.
	ID uint32
	// Row is the tuple's feature vector (owned by the caller).
	Row []float64
	// Score is the strategy score (selection proposals only).
	Score float64
	// Pool is the number of candidates scanned (selection proposals only).
	Pool int
	// Bootstrap marks initial-acquisition draws.
	Bootstrap bool
	// Iteration is the 1-based selection iteration (0 for bootstrap).
	Iteration int
	// Degraded marks proposals produced in a reduced provider mode (see
	// IterationInfo.Degraded).
	Degraded bool
}

// NewSession validates the configuration and builds a session.
func NewSession(cfg Config, provider Provider, labeler Labeler) (*Session, error) {
	if provider == nil {
		return nil, fmt.Errorf("ide: nil provider")
	}
	if labeler == nil {
		return nil, fmt.Errorf("ide: nil labeler")
	}
	if cfg.SeedCount == 0 {
		cfg.SeedCount = 1
	}
	if cfg.SeedCount < 0 {
		return nil, fmt.Errorf("ide: SeedCount %d must be positive", cfg.SeedCount)
	}
	if cfg.SeedWithPositive {
		if _, ok := labeler.(PositiveSeeder); !ok {
			return nil, fmt.Errorf("ide: SeedWithPositive requires a labeler implementing PositiveSeeder, got %T", labeler)
		}
		if cfg.SeedCount > 1 {
			if _, ok := labeler.(MultiPositiveSeeder); !ok {
				return nil, fmt.Errorf("ide: SeedCount > 1 requires a labeler implementing MultiPositiveSeeder, got %T", labeler)
			}
		}
	}
	if cfg.MaxLabels <= 0 {
		return nil, fmt.Errorf("ide: MaxLabels %d must be positive", cfg.MaxLabels)
	}
	if cfg.EstimatorFactory == nil {
		return nil, fmt.Errorf("ide: nil estimator factory")
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("ide: nil strategy")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("ide: BatchSize %d must be positive", cfg.BatchSize)
	}
	reg := cfg.Registry
	return &Session{
		cfg:        cfg,
		provider:   provider,
		labeler:    labeler,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		hIteration: reg.Histogram(obs.IterationHistName, nil),
		hSelect:    reg.Histogram(obs.PhaseHistName(obs.PhaseSelect), nil),
		hLabel:     reg.Histogram(obs.PhaseHistName(obs.PhaseLabel), nil),
		hRetrain:   reg.Histogram(obs.PhaseHistName(obs.PhaseRetrain), nil),
		mIters:     reg.Counter("ide_iterations_total"),
		mLabels:    reg.Counter("ide_labels_total"),
		mRetrains:  reg.Counter("ide_retrains_total"),
		mCarried:   reg.Counter("uei_select_rows_carried_total"),
		mScanned:   reg.Counter("uei_select_rows_scanned_total"),
		mChanged:   reg.Counter("uei_select_rows_changed_total"),
		gState:     reg.Gauge(obs.ScoreStateBytesGauge),
	}, nil
}

// Run executes the full exploration and returns the retrieved results.
// ctx bounds the whole session: it is checked at every iteration boundary
// and threaded into every provider call, so cancellation aborts within one
// iteration (a region load in flight stops at its next chunk boundary) and
// Run returns an error satisfying errors.Is(err, ctx.Err()).
//
// Run is the synchronous driver of the step machine: it alternates Propose
// and Resolve until Propose reports ErrExplorationDone, then Finishes.
// Step-wise callers (the serving layer) interleave the same calls with
// arbitrary think time in between and get identical selections.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	for {
		if _, err := s.Propose(ctx); err != nil {
			if errors.Is(err, ErrExplorationDone) {
				break
			}
			return nil, err
		}
		if _, err := s.Resolve(ctx); err != nil {
			return nil, err
		}
	}
	return s.Finish(ctx)
}

// Propose advances the session to its next label solicitation and returns
// it. The first call prepares the provider (and replays a resumed
// snapshot); while L lacks a class it returns uniform random bootstrap
// proposals; afterwards it runs one selection iteration (Algorithm 2 lines
// 15-21) per call. Calling Propose again without resolving returns the
// same outstanding proposal. When the label budget is spent or the pool is
// exhausted it returns ErrExplorationDone.
func (s *Session) Propose(ctx context.Context) (*Proposal, error) {
	if s.pending != nil {
		return s.pending, nil
	}
	if s.phase == phaseNew {
		if err := s.start(ctx); err != nil {
			return nil, err
		}
	}
	if s.phase == phaseBootstrap {
		return s.proposeBootstrap(ctx)
	}
	if s.phase == phaseDone {
		return nil, ErrExplorationDone
	}
	return s.proposeSelect(ctx)
}

// start runs once, lazily, on the first Propose: provider preparation,
// snapshot replay, and — when the labeled set lacks a class — positive
// seeding. It leaves the session in phaseBootstrap or phaseReady. On a
// traced context the whole initialization is one "prepare" span.
func (s *Session) start(ctx context.Context) error {
	pctx, span := obs.StartSpan(ctx, obs.PhasePrepare)
	err := s.startInner(pctx)
	if err != nil {
		span.SetOutcome("error")
	}
	span.End(nil)
	return err
}

func (s *Session) startInner(ctx context.Context) error {
	if err := s.provider.Prepare(ctx); err != nil {
		return fmt.Errorf("ide: provider prepare: %w", err)
	}
	if s.resumed {
		for _, id := range s.labeledIDs {
			s.provider.OnLabeled(id)
		}
	}
	if hasPos, hasNeg := s.classesPresent(); !hasPos || !hasNeg {
		if s.cfg.SeedWithPositive {
			if err := s.seedPositives(ctx); err != nil {
				return err
			}
		}
		if hasPos, hasNeg := s.classesPresent(); !hasPos || !hasNeg {
			s.phase = phaseBootstrap
			return nil
		}
	}
	return s.finishBootstrap()
}

// finishBootstrap transitions from acquisition to the interactive loop:
// the first model fit and the AfterPrepare boundary hook.
func (s *Session) finishBootstrap() error {
	if err := s.refit(); err != nil {
		return err
	}
	if s.cfg.AfterPrepare != nil {
		s.cfg.AfterPrepare()
	}
	s.phase = phaseReady
	return nil
}

// proposeBootstrap draws one uniform random candidate for the initial
// example acquisition (Algorithm 2 line 13: on sparse-target workloads a
// random tuple is negative with overwhelming probability).
func (s *Session) proposeBootstrap(ctx context.Context) (*Proposal, error) {
	if s.labeler.Count() >= s.cfg.MaxLabels {
		hasPos, hasNeg := s.classesPresent()
		return nil, fmt.Errorf("ide: label budget exhausted before both classes were observed (pos=%v neg=%v)", hasPos, hasNeg)
	}
	if s.bootstrapAttempts > 100*s.cfg.MaxLabels {
		return nil, fmt.Errorf("ide: initial example acquisition stalled after %d attempts", s.bootstrapAttempts)
	}
	s.bootstrapAttempts++
	bctx, span := obs.StartSpan(ctx, obs.PhaseBootstrap)
	id, row, ok, err := s.randomCandidate(bctx)
	if err != nil {
		span.SetOutcome("error")
		span.End(nil)
		return nil, err
	}
	span.End(nil)
	if !ok {
		return nil, fmt.Errorf("ide: initial acquisition: %w", ErrNoCandidates)
	}
	s.pending = &Proposal{ID: id, Row: row, Bootstrap: true}
	return s.pending, nil
}

// proposeSelect runs the pre-label half of one selection iteration:
// provider preparation (region swap), candidate scoring, and the argmax
// choice. The iteration clock starts here and stops in Resolve, so in
// Run-mode the user's labeling time is part of the response time exactly
// as before the step refactor.
func (s *Session) proposeSelect(ctx context.Context) (*Proposal, error) {
	if s.labeler.Count() >= s.cfg.MaxLabels {
		s.phase = phaseDone
		s.Release()
		return nil, ErrExplorationDone
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ide: session canceled after %d iterations: %w", s.iteration, err)
	}
	s.iteration++
	s.iterStart = time.Now()
	// On a traced context the propose half of the iteration — provider
	// preparation (score/load/swap) and candidate selection — is one
	// "iteration" span under the step; the resolve half (label, retrain)
	// belongs to the step that delivers the label.
	ictx, ispan := obs.StartSpan(ctx, "iteration")
	if err := s.provider.BeforeSelect(ictx, s.model); err != nil {
		ispan.SetOutcome("error")
		ispan.End(map[string]float64{"iter": float64(s.iteration)})
		return nil, fmt.Errorf("ide: iteration %d: %w", s.iteration, err)
	}
	sctx, sel := obs.StartSpan(ictx, obs.PhaseSelect)
	id, row, score, pool, err := s.selectCandidate(sctx)
	if err != nil {
		sel.End(nil)
		ispan.SetOutcome("error")
		ispan.End(map[string]float64{"iter": float64(s.iteration)})
		return nil, fmt.Errorf("ide: iteration %d: %w", s.iteration, err)
	}
	s.mCarried.Add(int64(s.lastPass.Carried))
	s.mScanned.Add(int64(s.lastPass.Scanned))
	s.mChanged.Add(int64(s.lastPass.Changed))
	s.hSelect.ObserveDuration(sel.End(map[string]float64{
		"pool":    float64(pool),
		"carried": float64(s.lastPass.Carried),
		"scanned": float64(s.lastPass.Scanned),
		"changed": float64(s.lastPass.Changed),
	}))
	if pool == 0 {
		s.phase = phaseDone // unlabeled pool exhausted
		s.Release()
		ispan.End(map[string]float64{"iter": float64(s.iteration), "pool": 0})
		return nil, ErrExplorationDone
	}
	if s.providerDegraded() {
		ispan.SetOutcome("degraded")
	}
	ispan.End(map[string]float64{"iter": float64(s.iteration), "pool": float64(pool)})
	s.pending = &Proposal{ID: id, Row: row, Score: score, Pool: pool, Iteration: s.iteration, Degraded: s.providerDegraded()}
	return s.pending, nil
}

// providerDegraded asks the provider (when it can tell) whether its last
// per-iteration preparation ran in a reduced mode (see
// IterationInfo.Degraded).
func (s *Session) providerDegraded() bool {
	if d, ok := s.provider.(interface{ LastStepDegraded() bool }); ok {
		return d.LastStepDegraded()
	}
	return false
}

// Resolve answers the outstanding proposal by asking the session's own
// labeler (the oracle simulation, or a human at a terminal) and applies
// the label. For selection proposals it completes the iteration — batch
// retraining, metrics, the OnIteration callback — and returns its
// IterationInfo; bootstrap resolutions return nil info.
func (s *Session) Resolve(ctx context.Context) (*IterationInfo, error) {
	p := s.pending
	if p == nil {
		return nil, fmt.Errorf("ide: no outstanding proposal to resolve")
	}
	if p.Bootstrap {
		s.pending = nil
		label := s.labeler.Label(p.ID, p.Row)
		s.addLabel(p.ID, p.Row, label)
		s.provider.OnLabeled(p.ID)
		if hasPos, hasNeg := s.classesPresent(); hasPos && hasNeg {
			if err := s.finishBootstrap(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	s.pending = nil
	_, lab := obs.StartSpan(ctx, obs.PhaseLabel)
	label := s.labeler.Label(p.ID, p.Row)
	s.hLabel.ObserveDuration(lab.End(map[string]float64{"id": float64(p.ID)}))
	return s.completeIteration(ctx, p, label)
}

// Feed answers the outstanding proposal with an externally supplied label
// (an HTTP client, a UI) instead of the session's labeler asking for it.
// It requires the session to have been built with an *ExternalLabeler so
// label accounting stays in one place.
func (s *Session) Feed(ctx context.Context, label oracle.Label) (*IterationInfo, error) {
	ext, ok := s.labeler.(*ExternalLabeler)
	if !ok {
		return nil, fmt.Errorf("ide: Feed requires an *ExternalLabeler, session has %T", s.labeler)
	}
	if s.pending == nil {
		return nil, fmt.Errorf("ide: no outstanding proposal to feed")
	}
	ext.stage(label)
	return s.Resolve(ctx)
}

// Pending returns the outstanding proposal, or nil.
func (s *Session) Pending() *Proposal { return s.pending }

// Iterations returns the number of selection iterations started so far.
func (s *Session) Iterations() int { return s.iteration }

// completeIteration applies a selection label and runs the iteration's
// tail: batch retraining, latency accounting, tracing, and the
// OnIteration callback.
func (s *Session) completeIteration(ctx context.Context, p *Proposal, label oracle.Label) (*IterationInfo, error) {
	s.addLabel(p.ID, p.Row, label)
	s.provider.OnLabeled(p.ID)
	s.mLabels.Inc()

	retrained := false
	s.sinceRetrain++
	if s.sinceRetrain >= s.cfg.BatchSize {
		_, ret := obs.StartSpan(ctx, obs.PhaseRetrain)
		if err := s.refit(); err != nil {
			ret.End(nil)
			return nil, fmt.Errorf("ide: iteration %d retrain: %w", p.Iteration, err)
		}
		s.hRetrain.ObserveDuration(ret.End(map[string]float64{
			"labeled": float64(len(s.labeledY)),
		}))
		s.mRetrains.Inc()
		s.sinceRetrain = 0
		retrained = true
	}
	elapsed := time.Since(s.iterStart)
	s.hIteration.ObserveDuration(elapsed)
	s.mIters.Inc()
	info := IterationInfo{
		Iteration:    p.Iteration,
		LabelsGiven:  s.labeler.Count(),
		SelectedID:   p.ID,
		Label:        label,
		Score:        p.Score,
		PoolSize:     p.Pool,
		ResponseTime: elapsed,
		Retrained:    retrained,
		Degraded:     p.Degraded,
		Model:        s.model,
	}
	if s.cfg.OnIteration != nil {
		s.cfg.OnIteration(info)
	}
	return &info, nil
}

// Finish runs result retrieval (Algorithm 1 line 13) with the current
// model and summarizes the session.
func (s *Session) Finish(ctx context.Context) (*Result, error) {
	if s.pending != nil {
		return nil, fmt.Errorf("ide: proposal for tuple %d is outstanding; resolve it before Finish", s.pending.ID)
	}
	if s.model == nil {
		return nil, fmt.Errorf("ide: finish before the first model fit: %w", learn.ErrNotFitted)
	}
	if s.cfg.BeforeRetrieve != nil {
		s.cfg.BeforeRetrieve()
	}
	// Retrieval does not use the pool table; give its memory back before
	// the scan allocates its own.
	s.Release()
	rctx, span := obs.StartSpan(ctx, obs.PhaseRetrieve)
	positive, err := s.provider.Retrieve(rctx, s.model)
	if err != nil {
		span.SetOutcome("error")
		span.End(nil)
		return nil, fmt.Errorf("ide: result retrieval: %w", err)
	}
	span.End(map[string]float64{"positive": float64(len(positive))})
	return &Result{
		LabelsUsed: s.labeler.Count(),
		Iterations: s.iteration,
		Positive:   positive,
		Model:      s.model,
	}, nil
}

// Model returns the current predictive model (nil before the first fit).
func (s *Session) Model() learn.Classifier { return s.model }

// LabeledCount returns the size of L.
func (s *Session) LabeledCount() int { return len(s.labeledY) }

// seedPositives bootstraps L with known-relevant examples supplied by the
// labeler (Config.SeedWithPositive): the standard IDE assumption that the
// user shows an instance of what they seek.
func (s *Session) seedPositives(ctx context.Context) error {
	if s.cfg.SeedCount > 1 {
		seeder := s.labeler.(MultiPositiveSeeder)
		ids, rows := seeder.SeedPositives(s.cfg.SeedCount)
		if len(ids) == 0 {
			return fmt.Errorf("ide: no relevant tuples exist to seed the exploration")
		}
		for i, id := range ids {
			label := s.labeler.Label(id, rows[i])
			s.addLabel(id, rows[i], label)
			s.provider.OnLabeled(id)
		}
		return nil
	}
	id, row, ok, err := s.findSeedPositive(ctx)
	if err != nil {
		return fmt.Errorf("ide: seeding the exploration: %w", err)
	}
	if !ok {
		return fmt.Errorf("ide: no relevant tuple exists to seed the exploration")
	}
	label := s.labeler.Label(id, row)
	s.addLabel(id, row, label)
	s.provider.OnLabeled(id)
	return nil
}

// findSeedPositive locates one relevant example: preferably a relevant
// candidate already in the pool, otherwise any relevant tuple from the
// oracle's ground truth (the "user brings an example" case).
func (s *Session) findSeedPositive(ctx context.Context) (uint32, []float64, bool, error) {
	var id uint32
	var row []float64
	found := false
	seeder := s.labeler.(PositiveSeeder)
	err := s.provider.Candidates(ctx, func(cid uint32, crow []float64) bool {
		if seeder.IsRelevant(cid) {
			id = cid
			row = append([]float64(nil), crow...)
			found = true
			return false
		}
		return true
	})
	if err != nil {
		return 0, nil, false, err
	}
	if found {
		return id, row, true, nil
	}
	id, row, found = seeder.SeedPositive()
	return id, row, found, nil
}

// randomCandidate draws one uniform candidate with a size-1 reservoir over
// the stream.
func (s *Session) randomCandidate(ctx context.Context) (uint32, []float64, bool, error) {
	var id uint32
	var row []float64
	n := 0
	err := s.provider.Candidates(ctx, func(cid uint32, crow []float64) bool {
		n++
		if s.rng.Intn(n) == 0 {
			id = cid
			row = append(row[:0], crow...)
		}
		return true
	})
	if err != nil {
		return 0, nil, false, err
	}
	if n == 0 {
		return 0, nil, false, nil
	}
	return id, append([]float64(nil), row...), true, nil
}

// residentPool is implemented by providers whose Candidates streams rows
// already in memory, in ascending id order, mostly the same ones from call
// to call (UEI's sample plus region); CandidateCount is how many. The
// full-scan baseline does not implement it: keeping a list per table row
// would hold in memory what that scheme streams from disk.
type residentPool interface {
	CandidateCount() int
}

// selectCandidate returns the argmax-scoring candidate (Eq. 2), copying
// its row. Ties keep the first candidate seen, which combined with sorted
// candidate streams makes selection deterministic. It is one streaming
// pass; a row's score is Strategy.Score, except that with a DWKNN model, a
// strategy that is a function of the posterior and a resident pool each
// row's k-NN scan is resumed from the previous selection through s.poolTab
// (learn.NeighborTable) — to the same bits.
func (s *Session) selectCandidate(ctx context.Context) (uint32, []float64, float64, int, error) {
	score := func(_ uint32, row []float64) (float64, error) { return s.cfg.Strategy.Score(s.model, row) }
	dw, isDW := s.model.(*learn.DWKNN)
	ps, fromPosterior := s.cfg.Strategy.(al.PosteriorScorer)
	rp, resident := s.provider.(residentPool)
	resumed := isDW && fromPosterior && resident
	if resumed {
		// When the table has to be (re)allocated, a sixteenth of headroom
		// lets the pool grow by a larger region without doing it again.
		n := rp.CandidateCount()
		if n > s.poolTab.Cap() {
			n += n / 16
		}
		if err := s.poolTab.Begin(dw, n); err != nil {
			return 0, nil, 0, 0, err
		}
		score = func(id uint32, row []float64) (float64, error) {
			p, err := s.poolTab.Posterior(id, row)
			return ps.FromPosterior(p), err
		}
	}
	var bestID uint32
	var bestRow []float64
	bestScore := math.Inf(-1)
	pool := 0
	var scoreErr error
	err := s.provider.Candidates(ctx, func(id uint32, row []float64) bool {
		if pool%ctxCheckEvery == 0 {
			if scoreErr = ctx.Err(); scoreErr != nil {
				return false
			}
		}
		v, err := score(id, row)
		if err != nil {
			scoreErr = err
			return false
		}
		pool++
		if v > bestScore {
			bestScore = v
			bestID = id
			bestRow = append(bestRow[:0], row...)
		}
		return true
	})
	if err == nil {
		err = scoreErr
	}
	s.lastPass = learn.NeighborPass{Scanned: pool}
	if resumed {
		// A pass cut short leaves no list behind: the next selection scans
		// from scratch.
		s.lastPass = s.poolTab.End(err == nil)
		s.accountPool()
	}
	if err != nil || pool == 0 {
		return 0, nil, 0, 0, err
	}
	return bestID, append([]float64(nil), bestRow...), bestScore, pool, nil
}

// ctxCheckEvery is how many candidates selection scores between context
// checks.
const ctxCheckEvery = 512

// Release gives back the memory the session keeps between selections (the
// pool's neighbour table). The session stays usable — the next selection
// rebuilds the table from scratch — so Finish and the end of exploration
// call it themselves; a caller that drops an unfinished session should too,
// or its share stays on the uei_score_state_bytes gauge.
func (s *Session) Release() {
	s.poolTab.Release()
	s.accountPool()
}

// accountPool moves the session's share of the score-state gauge to what
// the pool table holds now.
func (s *Session) accountPool() {
	b := s.poolTab.Bytes()
	s.gState.Add(float64(b - s.poolBytes))
	s.poolBytes = b
}

// addLabel appends to L.
func (s *Session) addLabel(id uint32, row []float64, label oracle.Label) {
	s.labeledIDs = append(s.labeledIDs, id)
	s.labeledX = append(s.labeledX, row)
	if label == oracle.Positive {
		s.labeledY = append(s.labeledY, learn.ClassPositive)
	} else {
		s.labeledY = append(s.labeledY, learn.ClassNegative)
	}
}

// refit retrains the model on L and notifies the provider and strategy.
func (s *Session) refit() error {
	model := s.cfg.EstimatorFactory()
	if err := model.Fit(s.labeledX, s.labeledY); err != nil {
		return err
	}
	s.model = model
	s.provider.ModelUpdated()
	if aware, ok := s.cfg.Strategy.(al.LabeledAware); ok {
		if err := aware.SetLabeled(s.labeledX, s.labeledY); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) classesPresent() (hasPos, hasNeg bool) {
	for _, y := range s.labeledY {
		if y == learn.ClassPositive {
			hasPos = true
		} else {
			hasNeg = true
		}
	}
	return hasPos, hasNeg
}
