package core

import "github.com/uei-db/uei/internal/memcache"

// ViewOptions configures a per-session view of a shared Index: the view's
// slice of the global budget (granted by the serving layer's arbiter) and
// its sample. Every other option — prefetch, σ, the resident-region bound
// — is the parent's.
type ViewOptions struct {
	// MemoryBudgetBytes caps the view's resident unlabeled data. Required.
	MemoryBudgetBytes int64
	// SampleSize is the view's γ; zero derives it from the budget.
	SampleSize int
	// Seed drives the view's uniform sample (per-session, so concurrent
	// sessions explore distinct samples).
	Seed int64
}

// NewView derives an independent exploration state over the parent's
// storage: the shard coordinator (stores and chunk mappings), grid,
// symbolic index point set, worker pool, and metrics registry are shared
// (they are immutable or concurrency-safe), while the memory budget,
// unlabeled cache, uncertainty vector, and prefetcher (when the parent
// prefetches) are private to the view. This is what lets many
// concurrent sessions explore one index: each gets its own U, L-driven
// scores, and region residency, but storage is opened (and the pool's
// goroutines started) exactly once.
//
// Views are independent of each other but not of the parent's lifetime:
// close every view before closing the parent (a view's Close never touches
// the shared pool or store). Like the parent, a view is single-goroutine
// with respect to exploration calls.
func (x *Index) NewView(vo ViewOptions) (*Index, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	opts := x.opts
	opts.MemoryBudgetBytes = vo.MemoryBudgetBytes
	opts.SampleSize = vo.SampleSize
	opts.Seed = vo.Seed
	if _, err := opts.withDefaults(); err != nil {
		return nil, err
	}
	budget, cache, err := newUnlabeledCache(opts, x.Dims())
	if err != nil {
		return nil, err
	}
	v := &Index{
		opts:   opts,
		coord:  x.coord,
		grid:   x.grid,
		budget: budget,
		cache:  cache,
		// The packed symbolic points are immutable and shared; the
		// incremental-rescore state (ptab) stays private and cold, because
		// it tracks the view's own model sequence.
		blk:         x.blk,
		pool:        x.pool,
		isView:      true,
		uncertainty: make([]float64, x.grid.NumCells()),
		pendingCell: memcache.NoRegion,
		reg:         x.reg,
	}
	v.instrument()
	if x.live != nil {
		// Pin the PARENT's epoch, not the latest: the serving layer's
		// lazily-derived per-index state (oracle datasets, admission
		// bookkeeping) is sized to the parent's row count, so a view must
		// not silently see more rows than its parent. A view that wants
		// newer data calls AdvanceSnapshot (FollowLive does it per
		// iteration).
		snap, err := x.snap.Clone()
		if err != nil {
			return nil, err
		}
		v.live = x.live
		v.snap = snap
	}
	if opts.EnablePrefetch {
		if err := v.startPrefetcher(); err != nil {
			v.Close()
			return nil, err
		}
	}
	return v, nil
}
