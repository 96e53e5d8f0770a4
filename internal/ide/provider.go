// Package ide implements the active learning-based interactive data
// exploration engine of Algorithm 1 / Algorithm 2 — the role REQUEST [9]
// plays in the paper's evaluation — with a pluggable storage Provider so the
// same loop runs over UEI (internal/core) or over the DBMS baseline
// (internal/dbms), exactly like the paper's two schemes.
package ide

import (
	"context"
	"fmt"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/learn"
)

// Provider supplies unlabeled candidates each iteration and materializes
// the final result set. Implementations are single-goroutine; the context
// threaded into each method bounds that call's I/O (region loads, table
// scans) and descends from the one passed to Session.Run.
type Provider interface {
	// Name identifies the scheme in reports ("uei", "dbms").
	Name() string
	// Prepare runs once before the exploration loop (e.g. filling UEI's
	// uniform cache).
	Prepare(ctx context.Context) error
	// BeforeSelect runs at the start of every iteration with the current
	// model; UEI re-scores its symbolic points and swaps regions here. It
	// is part of the user-perceived response time.
	BeforeSelect(ctx context.Context, model learn.Classifier) error
	// Candidates streams the current unlabeled pool. The row slice passed
	// to fn may be reused between calls; callers must copy rows they keep.
	Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error
	// OnLabeled removes a tuple from the unlabeled pool.
	OnLabeled(id uint32)
	// ModelUpdated tells the provider the classifier was retrained.
	ModelUpdated()
	// Retrieve returns the ids the final model classifies positive
	// (Algorithm 1 line 13 / Algorithm 2 line 26).
	Retrieve(ctx context.Context, model learn.Classifier) ([]uint32, error)
}

// UEIProvider adapts a core.Index to the Provider interface.
type UEIProvider struct {
	idx *core.Index
	// RetrievalCutoff is the cell-pruning posterior for ResultRetrieval;
	// 0 retrieves exactly.
	RetrievalCutoff float64
}

// NewUEIProvider wraps an opened index.
func NewUEIProvider(idx *core.Index) (*UEIProvider, error) {
	if idx == nil {
		return nil, fmt.Errorf("ide: nil index")
	}
	return &UEIProvider{idx: idx}, nil
}

// Name implements Provider.
func (p *UEIProvider) Name() string { return "uei" }

// Prepare implements Provider: it fills the γ-sample cache.
func (p *UEIProvider) Prepare(ctx context.Context) error { return p.idx.InitExploration(ctx) }

// BeforeSelect implements Provider: Algorithm 2 lines 15-20 (re-score P,
// choose p*, load g* — with prefetch/deferral inside the index). On a
// live index opened with FollowLive it first advances the pinned snapshot
// to the newest flushed epoch: the iteration boundary is the only point
// where the visible row set may move, so within the iteration scores,
// regions, and retrieval all agree on one epoch.
func (p *UEIProvider) BeforeSelect(ctx context.Context, model learn.Classifier) error {
	if p.idx.FollowsLive() {
		if _, err := p.idx.AdvanceSnapshot(); err != nil {
			return err
		}
	}
	_, err := p.idx.EnsureRegion(ctx, model)
	return err
}

// Candidates implements Provider: the resident sample plus loaded region.
func (p *UEIProvider) Candidates(_ context.Context, fn func(id uint32, row []float64) bool) error {
	p.idx.Candidates(fn)
	return nil
}

// CandidateCount returns the size of the resident pool Candidates streams.
// Implementing it is how a provider tells the engine its pool is in memory
// and stable enough to keep per-row scoring state for.
func (p *UEIProvider) CandidateCount() int { return p.idx.CandidateCount() }

// OnLabeled implements Provider.
func (p *UEIProvider) OnLabeled(id uint32) { p.idx.MarkLabeled(id) }

// ModelUpdated implements Provider: symbolic-point scores are stale.
func (p *UEIProvider) ModelUpdated() { p.idx.InvalidateScores() }

// Retrieve implements Provider using UEI's grid-pruned retrieval.
func (p *UEIProvider) Retrieve(ctx context.Context, model learn.Classifier) ([]uint32, error) {
	return p.idx.ResultRetrieval(ctx, model, p.RetrievalCutoff)
}

// LastStepDegraded reports whether the index's latest EnsureRegion ran
// degraded (the winning cell's shard was unavailable and the step fell
// back to another cell or the resident region); the engine
// surfaces it on the iteration's Proposal and IterationInfo.
func (p *UEIProvider) LastStepDegraded() bool { return p.idx.LastStepDegraded() }

// Index exposes the wrapped index for statistics.
func (p *UEIProvider) Index() *core.Index { return p.idx }

// DBMSProvider adapts a dbms.Table: every iteration streams the whole table
// from secondary storage through the buffer pool — the exhaustive search
// the paper's baseline performs (§4.2: "uncertainty sampling requires an
// exhaustive search over the entire data space").
type DBMSProvider struct {
	table   *dbms.Table
	labeled map[uint32]bool
}

// NewDBMSProvider wraps an open table.
func NewDBMSProvider(table *dbms.Table) (*DBMSProvider, error) {
	if table == nil {
		return nil, fmt.Errorf("ide: nil table")
	}
	return &DBMSProvider{table: table, labeled: make(map[uint32]bool)}, nil
}

// Name implements Provider.
func (p *DBMSProvider) Name() string { return "dbms" }

// Prepare implements Provider (nothing to warm: the baseline has no
// exploration-specific structures, only the buffer pool).
func (p *DBMSProvider) Prepare(context.Context) error { return nil }

// BeforeSelect implements Provider (no per-iteration setup).
func (p *DBMSProvider) BeforeSelect(context.Context, learn.Classifier) error { return nil }

// Candidates implements Provider with a full table scan, skipping labeled
// tuples.
func (p *DBMSProvider) Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	return p.table.Scan(ctx, func(id uint32, row []float64) bool {
		if p.labeled[id] {
			return true
		}
		return fn(id, row)
	})
}

// OnLabeled implements Provider.
func (p *DBMSProvider) OnLabeled(id uint32) { p.labeled[id] = true }

// ModelUpdated implements Provider (stateless with respect to the model).
func (p *DBMSProvider) ModelUpdated() {}

// Retrieve implements Provider with one more full scan.
func (p *DBMSProvider) Retrieve(ctx context.Context, model learn.Classifier) ([]uint32, error) {
	var out []uint32
	var scanErr error
	err := p.table.Scan(ctx, func(id uint32, row []float64) bool {
		cls, err := learn.Predict(model, row)
		if err != nil {
			scanErr = err
			return false
		}
		if cls == learn.ClassPositive {
			out = append(out, id)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

// Table exposes the wrapped table for statistics.
func (p *DBMSProvider) Table() *dbms.Table { return p.table }
