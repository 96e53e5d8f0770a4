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
	man      *shard.Manifest
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
// a chunk store's FetchRows contract.
func (s *Snapshot) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	return shard.FetchPartsRows(ctx, s.parts(), ids)
}

// Shards groups the snapshot's segments into per-shard multi-part shards
// for a local coordinator (shard.GroupShards).
func (s *Snapshot) Shards() []*shard.Shard {
	return shard.GroupShards(s.db.shards, s.man.Segments, s.parts())
}
