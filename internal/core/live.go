package core

import (
	"context"
	"errors"

	"github.com/uei-db/uei/internal/pool"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// ErrNotLive is returned by the write-path methods (Append, Flush,
// AdvanceSnapshot) of an index opened over a static layout.
var ErrNotLive = errors.New("core: index was not opened over a live-ingest layout")

// openLive opens a live (stream) layout: the index reads through a pinned
// snapshot epoch and exposes the write path (Append/Flush). Geometry is
// fixed by the layout, so SegmentsPerDim and Shards are validated against
// the manifest man, whatever the shard count.
func openLive(dir string, man *shard.Manifest, opts Options) (*Index, error) {
	if err := opts.pinLayout(dir, man.Shards, man.SegmentsPerDim); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	bc, err := newBlockCache(opts.BlockCacheBytes)
	if err != nil {
		return nil, err
	}
	sdb, err := stream.Open(dir, stream.Options{
		Limiter:       opts.Limiter,
		BlockCache:    bc,
		Registry:      opts.Registry,
		FlushInterval: opts.FlushInterval,
	})
	if err != nil {
		return nil, err
	}
	snap, err := sdb.Acquire()
	if err != nil {
		sdb.Close()
		return nil, err
	}
	pl := pool.New(opts.Workers)
	var idx *Index
	// One part per flushed segment on the store's fixed grid: routing,
	// scoring and retrieval behave exactly as over a static layout of the
	// same rows.
	coord, err := shard.NewLocalCoordinator(sdb.Grid(), sdb.Columns(), snap.Shards(), openOptions(opts, pl, bc))
	if err == nil {
		idx, err = newIndex(opts, coord, pl)
	}
	if err != nil {
		pl.Close()
		snap.Release()
		sdb.Close()
		return nil, err
	}
	idx.live = sdb
	idx.snap = snap
	return idx, nil
}

// Live returns the streaming write store backing this index, or nil for a
// static layout. It is the seam for ingest tooling (direct appends,
// explicit compaction, failpoints in tests).
func (x *Index) Live() *stream.DB { return x.live }

// LiveEpoch returns the snapshot epoch this index currently reads, or 0
// for a static layout. Views report the epoch pinned at their creation
// until they AdvanceSnapshot.
func (x *Index) LiveEpoch() uint64 {
	if x.live == nil {
		return 0
	}
	return x.snap.Epoch()
}

// FollowsLive reports whether this index opts into advancing its snapshot
// at iteration boundaries (Options.FollowLive on a live layout).
func (x *Index) FollowsLive() bool { return x.live != nil && x.opts.FollowLive }

// Append validates and durably stages rows in the live write store. The
// rows are acknowledged once WAL-fsynced; they become read-visible to NEW
// snapshots after the next flush, and never to the currently pinned one —
// a running iteration's view cannot shift under it. Returns the first
// assigned global row id.
func (x *Index) Append(ctx context.Context, rows [][]float64) (uint32, error) {
	if x.closed.Load() {
		return 0, ErrClosed
	}
	if x.live == nil {
		return 0, ErrNotLive
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return x.live.Append(rows)
}

// Flush folds every pending appended row into committed segments,
// advancing the live epoch. Held snapshots are unaffected; call
// AdvanceSnapshot (or open with FollowLive) to observe the new epoch.
func (x *Index) Flush(ctx context.Context) error {
	if x.closed.Load() {
		return ErrClosed
	}
	if x.live == nil {
		return ErrNotLive
	}
	return x.live.Flush(ctx)
}

// AdvanceSnapshot re-pins this index (or view) to the newest committed
// epoch, if it moved. It must only be called at iteration boundaries: it
// invalidates symbolic-point scores and drops cached regions (their cell
// contents may have grown), while the uniform sample is kept — row ids
// and values are immutable under append-only ingest, so the sample stays
// a valid uniform draw of a prefix of the data. Reports whether the
// snapshot moved.
func (x *Index) AdvanceSnapshot() (bool, error) {
	if x.closed.Load() {
		return false, ErrClosed
	}
	if x.live == nil {
		return false, ErrNotLive
	}
	if x.live.Epoch() == x.snap.Epoch() {
		return false, nil
	}
	snap, err := x.live.Acquire()
	if err != nil {
		return false, err
	}
	if snap.Epoch() == x.snap.Epoch() {
		snap.Release()
		return false, nil
	}
	// The next epoch's coordinator shares the epoch-invariant grid,
	// ownership and packed centers with the current one.
	coord, err := x.coord.NextEpoch(snap.Shards())
	if err != nil {
		snap.Release()
		return false, err
	}
	// A background load reads x.coord and the old epoch's segments: stop
	// it and wait for it to exit before either goes.
	x.dropPending()
	x.coord = coord
	old := x.snap
	x.snap = snap
	old.Release()
	x.cache.DropRegion()
	x.scoresValid = false
	// Drop the incremental-rescore lists (the storage stays): the symbolic
	// points cannot change, but a pass from scratch on the new epoch keeps
	// the invariants trivially true.
	x.ptab.Reset()
	if x.pf != nil {
		// θ follows the row count.
		return true, x.deriveTheta()
	}
	return true, nil
}
