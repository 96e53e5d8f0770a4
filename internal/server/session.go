package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// SessionSpec is the client-supplied description of an exploration session
// (the POST /v1/sessions request body).
type SessionSpec struct {
	// Name is an optional client label; it has no semantics server-side.
	Name string `json:"name,omitempty"`
	// MaxLabels is the session's total label budget, counted across
	// evictions and resumes. Zero selects defaultMaxLabels.
	MaxLabels int `json:"max_labels,omitempty"`
	// BatchSize is the retrain batch B. Zero selects 1.
	BatchSize int `json:"batch_size,omitempty"`
	// Seed drives the session's uniform sample and bootstrap draws. With a
	// fixed Seed (and SampleSize) a session resumes deterministically: the
	// rebuilt view draws the same sample, so an evicted session proposes
	// exactly what an uninterrupted one would have.
	Seed int64 `json:"seed,omitempty"`
	// SampleSize is the view's γ. Zero derives it from the granted budget
	// share, which varies with server load — pin it when deterministic
	// eviction/resume matters.
	SampleSize int `json:"sample_size,omitempty"`
	// Oracle, when set, makes this a simulated session: the server labels
	// every proposal itself from the described ground-truth region, and
	// each step returns a completed iteration. When nil the session is
	// interactive: each step returns a proposal and the client answers it
	// by posting {"label": "positive"|"negative"} on its next step.
	Oracle *OracleSpec `json:"oracle,omitempty"`
}

// OracleSpec describes a simulated user's target, either explicitly
// (center + half-widths) or by selectivity (the server synthesizes a region
// holding approximately that fraction of the dataset, from the session
// seed). Regions splits a synthesized target into k disjoint components.
type OracleSpec struct {
	Center []float64 `json:"center,omitempty"`
	Widths []float64 `json:"widths,omitempty"`
	// Selectivity is the target fraction of relevant tuples (e.g. 0.004);
	// used when Center/Widths are absent.
	Selectivity float64 `json:"selectivity,omitempty"`
	// Tolerance is the relative cardinality slack for region synthesis.
	// Zero selects 0.5.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Regions, when > 1, synthesizes that many disjoint component regions
	// whose combined selectivity approximates Selectivity (requires
	// Selectivity; incompatible with Center/Widths).
	Regions int `json:"regions,omitempty"`
}

// defaultMaxLabels is the label budget of a session whose spec leaves
// MaxLabels zero.
const defaultMaxLabels = 100

// hostedState names a hosted session's lifecycle states.
type hostedState int

const (
	// stateLive: the session holds a budget share, an index view, and a
	// running engine.
	stateLive hostedState = iota
	// stateEvicted: the labeled set is snapshotted on disk and all memory
	// (budget share, view, engine) is released; the next step resumes it.
	stateEvicted
	// stateClosed: deleted; the id answers 404 if re-used.
	stateClosed
)

func (s hostedState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateEvicted:
		return "evicted"
	default:
		return "closed"
	}
}

// hosted is one server-side session. Its mutex serializes all engine access
// (ide.Session and core.Index views are single-goroutine); tickets is the
// bounded admission queue for steps — a full channel means the client has
// more requests in flight than the server will queue.
type hosted struct {
	id   string
	spec SessionSpec

	tickets chan struct{}

	mu       sync.Mutex
	state    hostedState
	view     *core.Index
	sess     *ide.Session
	external *ide.ExternalLabeler // nil in oracle mode
	lastUsed time.Time
	done     bool
	result   *ide.Result
	// labelsBase / itersBase carry effort accounting across evictions: the
	// resumed engine counts from zero, so totals add the snapshot's size
	// and the pre-eviction iteration count.
	labelsBase int
	itersBase  int
	snapPath   string // non-empty once an eviction snapshot exists
	steps      int
	stepTime   time.Duration
}

// labelsUsedLocked is the session's total label effort. A live engine's
// labeled set already includes the replayed snapshot, so its size is the
// total; evicted sessions report the snapshot size.
func (h *hosted) labelsUsedLocked() int {
	if h.sess != nil {
		return h.sess.LabeledCount()
	}
	return h.labelsBase
}

// iterationsLocked is the session's total selection iterations.
func (h *hosted) iterationsLocked() int {
	if h.sess != nil {
		return h.itersBase + h.sess.Iterations()
	}
	return h.itersBase
}

// materializeLocked builds the session's live machinery — index view,
// provider, labeler, engine — from its spec, resuming from the eviction
// snapshot when one exists. The caller holds h.mu and has already admitted
// the session with the arbiter (grant is its byte share).
func (m *Manager) materializeLocked(ctx context.Context, h *hosted, grant int64) error {
	view, err := m.idx.NewView(core.ViewOptions{
		MemoryBudgetBytes: grant,
		SampleSize:        h.spec.SampleSize,
		Seed:              h.spec.Seed,
	})
	if err != nil {
		return fmt.Errorf("server: session %s view: %w", h.id, err)
	}
	if err := m.arb.Attach(h.id, view.Budget()); err != nil {
		view.Close()
		return err
	}
	provider, err := ide.NewUEIProvider(view)
	if err != nil {
		view.Close()
		return err
	}

	var labeler ide.Labeler
	var external *ide.ExternalLabeler
	seedWithPositive := false
	seedCount := 0
	if h.spec.Oracle != nil {
		user, seeds, err := m.oracleFor(ctx, h.spec)
		if err != nil {
			view.Close()
			return err
		}
		labeler = user
		seedCount = seeds
		seedWithPositive = true
	} else {
		external = &ide.ExternalLabeler{}
		labeler = external
	}

	var snap *ide.Snapshot
	if h.snapPath != "" {
		f, err := os.Open(h.snapPath)
		if err != nil {
			view.Close()
			return fmt.Errorf("server: session %s snapshot: %w", h.id, err)
		}
		s, err := ide.ReadSnapshot(f)
		f.Close()
		if err != nil {
			view.Close()
			return fmt.Errorf("server: session %s snapshot: %w", h.id, err)
		}
		snap = &s
	}

	// The resumed engine counts its labels from zero, so its budget is what
	// remains of the session's total after the snapshotted effort.
	remaining := h.spec.MaxLabels
	if snap != nil {
		remaining -= len(snap.IDs)
		if remaining < 1 {
			remaining = 1 // spent budgets surface as ErrExplorationDone, not config errors
		}
	}
	cfg := ide.Config{
		MaxLabels:        remaining,
		BatchSize:        h.spec.BatchSize,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, m.scales) },
		Strategy:         al.LeastConfidence{},
		Seed:             h.spec.Seed,
		SeedWithPositive: seedWithPositive,
		SeedCount:        seedCount,
		Registry:         m.cfg.Registry,
	}
	var sess *ide.Session
	if snap != nil {
		sess, err = ide.NewSessionFromSnapshot(cfg, provider, labeler, *snap)
		h.labelsBase = len(snap.IDs)
	} else {
		sess, err = ide.NewSession(cfg, provider, labeler)
		h.labelsBase = 0
	}
	if err != nil {
		view.Close()
		return err
	}
	h.view = view
	h.sess = sess
	h.external = external
	h.state = stateLive
	return nil
}

// evictLocked releases everything the session holds in memory — budget
// share, view, engine — after persisting its labeled set, leaving a
// stateEvicted shell that the next step transparently resumes. The caller
// holds h.mu. Sessions whose labeled set is still empty evict without a
// snapshot (there is nothing to persist; resume just starts over). An
// outstanding proposal is dropped: the resumed engine re-derives the same
// proposal from the same labeled set and sample.
func (m *Manager) evictLocked(h *hosted) error {
	if h.state != stateLive {
		return nil
	}
	if h.sess.LabeledCount() > 0 {
		path := filepath.Join(m.cfg.SnapshotDir, h.id+".snapshot")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("server: evict %s: %w", h.id, err)
		}
		err = h.sess.Snapshot().Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("server: evict %s: %w", h.id, err)
		}
		h.snapPath = path
		h.labelsBase = h.sess.LabeledCount()
	}
	h.itersBase += h.sess.Iterations()
	h.sess.Release()
	h.view.Close()
	h.view = nil
	h.sess = nil
	h.external = nil
	h.state = stateEvicted
	m.arb.Release(h.id)
	m.cEvicted.Inc()
	return nil
}

// oracleFor builds a simulated user for the spec's target. It returns the
// labeler and the bootstrap seed count (one positive per disjoint target
// component). The user labels from the rows the session holds; the dataset
// reconstructed from the store (m.dataset) is read here only by specs that
// need the data distribution — a selectivity or several regions — and
// otherwise only by the seed fallback, when the session's sample holds no
// relevant row.
func (m *Manager) oracleFor(ctx context.Context, spec SessionSpec) (ide.Labeler, int, error) {
	osp := spec.Oracle
	tol := osp.Tolerance
	if tol == 0 {
		tol = 0.5
	}
	if osp.Regions > 1 {
		if len(osp.Center) > 0 || len(osp.Widths) > 0 {
			return nil, 0, fmt.Errorf("oracle regions > 1 requires a bare selectivity spec: %w", errBadRequest)
		}
		if osp.Selectivity <= 0 {
			return nil, 0, fmt.Errorf("oracle regions > 1 needs a selectivity: %w", errBadRequest)
		}
		ds, err := m.dataset(ctx)
		if err != nil {
			return nil, 0, err
		}
		mr, err := oracle.FindMultiRegion(ds, osp.Regions, osp.Selectivity, tol, spec.Seed, 12)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", err, errBadRequest)
		}
		user, err := oracle.NewMulti(ds, mr)
		if err != nil {
			return nil, 0, err
		}
		return ide.OracleLabeler{O: user}, osp.Regions, nil
	}

	var region oracle.Region
	var err error
	switch {
	case len(osp.Center) > 0 || len(osp.Widths) > 0:
		region, err = oracle.NewRegion(osp.Center, osp.Widths)
	case osp.Selectivity > 0:
		ds, derr := m.dataset(ctx)
		if derr != nil {
			return nil, 0, derr
		}
		region, err = oracle.FindRegion(ds, osp.Selectivity, tol, spec.Seed, 12)
	default:
		return nil, 0, fmt.Errorf("oracle spec needs center+widths or a selectivity: %w", errBadRequest)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", err, errBadRequest)
	}
	if dims := len(m.idx.Columns()); region.Dims() != dims {
		return nil, 0, fmt.Errorf("oracle region has %d dims, the store %d: %w", region.Dims(), dims, errBadRequest)
	}
	// Only the seed fallback calls this, behind a labeler that carries no
	// context; and the reconstruction is shared by every later session, so
	// no one request's cancellation may end it.
	user := oracle.NewDeferred(region, func() (*dataset.Dataset, error) {
		return m.dataset(context.Background())
	})
	return ide.OracleLabeler{O: user}, 0, nil
}
