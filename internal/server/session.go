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
// holding approximately that fraction of the dataset). The scenario
// modifiers below reshape the base target: Regions splits it into k
// disjoint components, Ring carves a hole out of it (non-convex), and
// Drift moves it mid-session as labels accumulate.
type OracleSpec struct {
	Center []float64 `json:"center,omitempty"`
	Widths []float64 `json:"widths,omitempty"`
	// Selectivity is the target fraction of relevant tuples (e.g. 0.004);
	// used when Center/Widths are absent.
	Selectivity float64 `json:"selectivity,omitempty"`
	// Tolerance is the relative cardinality slack for region synthesis.
	// Zero selects 0.5.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Seed drives region synthesis. Zero falls back to the session seed;
	// set it when several sessions should share one named interest region
	// regardless of their private sampling seeds (zipfian popularity over
	// named regions needs exactly this).
	Seed int64 `json:"seed,omitempty"`
	// Regions, when > 1, synthesizes that many disjoint component regions
	// whose combined selectivity approximates Selectivity (requires
	// Selectivity; incompatible with Center/Widths, Ring, and Drift).
	Regions int `json:"regions,omitempty"`
	// Ring makes the target non-convex: the base region minus a
	// concentric hole of InnerFrac times its half-widths.
	Ring *RingSpec `json:"ring,omitempty"`
	// Drift moves the target while the user labels.
	Drift *DriftSpec `json:"drift,omitempty"`
}

// RingSpec carves a concentric hole out of the base region.
type RingSpec struct {
	// InnerFrac is the hole's half-widths as a fraction of the base
	// region's, in (0,1). Zero selects 0.5.
	InnerFrac float64 `json:"inner_frac,omitempty"`
}

// DriftSpec moves the target region linearly from its base placement to a
// destination over the first OverLabels solicited labels.
type DriftSpec struct {
	// ToCenter is the destination center. When absent, the destination is
	// the base center offset by OffsetFrac of the domain width per
	// dimension (clamped to the domain).
	ToCenter []float64 `json:"to_center,omitempty"`
	// ToWidths is the destination half-widths (defaults to the base
	// region's).
	ToWidths []float64 `json:"to_widths,omitempty"`
	// OffsetFrac shifts every dimension by this fraction of its domain
	// width when ToCenter is absent.
	OffsetFrac float64 `json:"offset_frac,omitempty"`
	// OverLabels is how many solicited labels the drift takes to
	// complete. Zero selects the session's label budget.
	OverLabels int `json:"over_labels,omitempty"`
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
	id      string
	spec    SessionSpec
	created time.Time

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

	// The resumed engine's labeler counts from zero, so its budget is what
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
	m.releaseLive()
	m.cEvicted.Inc()
	return nil
}

// oracleFor builds a simulated user for the spec's target scenario, lazily
// reconstructing the dataset from the chunk store the first time any
// oracle-mode session needs it. It returns the labeler and the bootstrap
// seed count (one positive per disjoint target component).
func (m *Manager) oracleFor(ctx context.Context, spec SessionSpec) (ide.Labeler, int, error) {
	ds, err := m.dataset(ctx)
	if err != nil {
		return nil, 0, err
	}
	osp := spec.Oracle
	tol := osp.Tolerance
	if tol == 0 {
		tol = 0.5
	}
	seed := osp.Seed
	if seed == 0 {
		seed = spec.Seed
	}
	if osp.Regions > 1 {
		if osp.Ring != nil || osp.Drift != nil || len(osp.Center) > 0 || len(osp.Widths) > 0 {
			return nil, 0, fmt.Errorf("oracle regions > 1 requires a bare selectivity spec: %w", errBadRequest)
		}
		if osp.Selectivity <= 0 {
			return nil, 0, fmt.Errorf("oracle regions > 1 needs a selectivity: %w", errBadRequest)
		}
		mr, err := oracle.FindMultiRegion(ds, osp.Regions, osp.Selectivity, tol, seed, 12)
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
	switch {
	case len(osp.Center) > 0 || len(osp.Widths) > 0:
		region, err = oracle.NewRegion(osp.Center, osp.Widths)
	case osp.Selectivity > 0:
		region, err = oracle.FindRegion(ds, osp.Selectivity, tol, seed, 12)
	default:
		return nil, 0, fmt.Errorf("oracle spec needs center+widths or a selectivity: %w", errBadRequest)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", err, errBadRequest)
	}

	switch {
	case osp.Ring != nil && osp.Drift != nil:
		return nil, 0, fmt.Errorf("oracle ring and drift cannot be combined: %w", errBadRequest)
	case osp.Ring != nil:
		frac := osp.Ring.InnerFrac
		if frac == 0 {
			frac = 0.5
		}
		ring, err := oracle.ConcentricRing(region, frac)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", err, errBadRequest)
		}
		user, err := oracle.NewShape(ds, ring)
		if err != nil {
			return nil, 0, err
		}
		return ide.OracleLabeler{O: user}, 0, nil
	case osp.Drift != nil:
		drift, err := m.driftFor(region, osp.Drift, spec)
		if err != nil {
			return nil, 0, err
		}
		user, err := oracle.NewDrifting(ds, drift)
		if err != nil {
			return nil, 0, err
		}
		return ide.DriftingOracleLabeler{O: user}, 0, nil
	}
	user, err := oracle.New(ds, region)
	if err != nil {
		return nil, 0, err
	}
	return ide.OracleLabeler{O: user}, 0, nil
}

// driftFor resolves a DriftSpec against the base region and the store's
// domain bounds.
func (m *Manager) driftFor(base oracle.Region, dsp *DriftSpec, spec SessionSpec) (oracle.Drift, error) {
	over := dsp.OverLabels
	if over == 0 {
		over = spec.MaxLabels
	}
	toWidths := dsp.ToWidths
	if len(toWidths) == 0 {
		toWidths = base.Widths
	}
	toCenter := dsp.ToCenter
	if len(toCenter) == 0 {
		if dsp.OffsetFrac == 0 {
			return oracle.Drift{}, fmt.Errorf("oracle drift needs to_center or offset_frac: %w", errBadRequest)
		}
		bounds := m.idx.Bounds()
		widths := bounds.Widths()
		toCenter = make([]float64, len(base.Center))
		for i := range toCenter {
			toCenter[i] = base.Center[i] + dsp.OffsetFrac*widths[i]
			if toCenter[i] > bounds.Max[i] {
				toCenter[i] = bounds.Max[i]
			}
			if toCenter[i] < bounds.Min[i] {
				toCenter[i] = bounds.Min[i]
			}
		}
	}
	to, err := oracle.NewRegion(toCenter, toWidths)
	if err != nil {
		return oracle.Drift{}, fmt.Errorf("%s: %w", err, errBadRequest)
	}
	drift, err := oracle.NewDrift(base, to, over)
	if err != nil {
		return oracle.Drift{}, fmt.Errorf("%s: %w", err, errBadRequest)
	}
	return drift, nil
}
