package stream

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/shard"
)

// Snapshot is one pinned epoch: an immutable view over the segment set the
// epoch's manifest committed. All reads answer from exactly those
// segments — concurrent appends, flushes, and compactions never change
// what a held snapshot sees — so a session over a snapshot is
// byte-identical to one over a static index built from the same rows.
// Release the snapshot when done; unreleased snapshots pin retired
// segments on disk forever.
type Snapshot struct {
	db       *DB
	man      *Manifest
	segs     []*segment
	released atomic.Bool
}

// Release unpins the snapshot's epoch, allowing segments it alone kept
// alive to be reclaimed. Idempotent.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.db.release(s.man.Epoch)
	}
}

// Epoch identifies the pinned manifest epoch.
func (s *Snapshot) Epoch() uint64 { return s.man.Epoch }

// Clone takes an additional pin on the same epoch, for a derived reader
// (a session view) whose lifetime is independent of s. The clone must be
// Released separately.
func (s *Snapshot) Clone() (*Snapshot, error) {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.db.closed {
		return nil, ErrClosed
	}
	if s.released.Load() {
		return nil, fmt.Errorf("stream: cloning a released snapshot")
	}
	s.db.pins[s.man.Epoch]++
	s.db.mLiveEpochs.SetInt(int64(len(s.db.pins)))
	return &Snapshot{db: s.db, man: s.man, segs: s.segs}, nil
}

// RowCount returns the read-visible row count (ids [0, RowCount) are
// resolvable through this snapshot).
func (s *Snapshot) RowCount() int { return s.man.FlushedRows }

// parts returns the snapshot's segments as shard parts, id-ascending by
// construction of the manifest's segment order.
func (s *Snapshot) parts() []shard.Part {
	parts := make([]shard.Part, len(s.segs))
	for i, seg := range s.segs {
		parts[i] = seg.part
	}
	return parts
}

// FetchRows reconstructs the tuples with the given global row ids across
// the snapshot's segments, sorted by id with duplicates collapsed —
// the flat store's FetchRows contract.
func (s *Snapshot) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	return shard.FetchPartsRows(ctx, s.parts(), ids)
}

// ShardManifest synthesizes the static shard manifest equivalent of this
// epoch: the same grid geometry, bounds, and hash contract a build-time
// shards.json would carry (one shard for a flat live layout), with
// per-shard row counts summed over the epoch's segments.
func (s *Snapshot) ShardManifest() (*shard.Manifest, error) {
	counts := make([]int, s.db.shards)
	for _, seg := range s.segs {
		counts[seg.meta.Shard] += seg.meta.Rows
	}
	return shard.NewManifest(s.db.shards, s.db.segsPD, s.db.columns,
		s.db.bounds.Min, s.db.bounds.Max, s.db.target, counts)
}

// Shards groups the snapshot's segments into per-shard multi-part shards
// for a local coordinator (shard s's parts in segment-id order, so rows
// within a shard merge back into global-id order exactly as a build-time
// partition would have laid them out).
func (s *Snapshot) Shards() []*shard.Shard {
	shards := make([]*shard.Shard, s.db.shards)
	for i := range shards {
		shards[i] = &shard.Shard{ID: i}
	}
	for _, seg := range s.segs {
		sh := shards[seg.meta.Shard]
		sh.Parts = append(sh.Parts, seg.part)
	}
	return shards
}
