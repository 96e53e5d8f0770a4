package stream

import (
	"fmt"
	"path/filepath"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/shard"
)

// memtable is the in-memory ordered write store absorbing appends between
// flushes: the rows with global ids firstID, firstID+1, ... — contiguous
// and ascending by construction, the same invariant build-time idmaps
// carry. A flush reads it as a build reads its row source.
type memtable struct {
	firstID uint32
	rows    *dataset.Dataset
}

func (m *memtable) len() int { return m.rows.Len() }

func (db *DB) newMemtable(firstID uint32) *memtable {
	return &memtable{firstID: firstID, rows: dataset.New(db.schema, 0)}
}

// segment is one open flushed segment: a chunk store, its mapping over the
// fixed grid, and the local→global idmap (nil for an identity segment) —
// exactly a shard.Part plus bookkeeping.
type segment struct {
	meta shard.SegmentMeta
	dir  string
	part shard.Part
}

// openParts opens committed segments of a manifest flushing flushedRows
// rows for serving (shard.OpenSegments), each store instrumented on the
// DB's registry.
func (db *DB) openParts(metas []shard.SegmentMeta, flushedRows int) ([]*segment, error) {
	opts := shard.OpenOptions{Limiter: db.opts.Limiter, BlockCache: db.opts.BlockCache}
	parts, err := shard.OpenSegments(db.dir, db.grid, metas, flushedRows, opts)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	segs := make([]*segment, len(metas))
	for i, meta := range metas {
		parts[i].Store.Instrument(db.opts.Registry)
		segs[i] = &segment{meta: meta, dir: filepath.Join(db.dir, shard.SegmentDirName(meta.ID)), part: parts[i]}
	}
	return segs, nil
}
