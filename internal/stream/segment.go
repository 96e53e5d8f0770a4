package stream

import (
	"fmt"
	"path/filepath"

	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/vec"
)

// memtable is the in-memory ordered write store absorbing appends between
// flushes. Rows arrive in assigned-id order, so ids are contiguous and
// ascending by construction — the same invariant build-time idmaps carry.
type memtable struct {
	firstID uint32
	rows    [][]float64
	bytes   int64
}

func (m *memtable) len() int { return len(m.rows) }

// frozenMem pairs an immutable frozen memtable with the WAL generation
// that made it durable; flushing it retires that generation.
type frozenMem struct {
	mem    *memtable
	walSeq int
}

// segment is one open flushed segment: a flat chunk store, its mapping
// over the fixed grid, and the local→global idmap — exactly a shard.Part
// plus bookkeeping.
type segment struct {
	meta SegmentMeta
	dir  string
	part shard.Part
}

// writeSegment writes the next segment of shard s under dir — the part
// over the rows ids names, row(i) returning the values of ids[i] — and
// records it in m.
func (m *Manifest) writeSegment(dir string, s int, ids []uint32, row func(i int) []float64) error {
	id := m.NextSegmentID
	bounds := vec.NewBox(m.MinValues, m.MaxValues)
	bytes, err := shard.WritePart(filepath.Join(dir, SegmentDirName(id)), m.Columns, bounds, m.TargetChunkBytes, ids, row)
	if err != nil {
		return err
	}
	m.Segments = append(m.Segments, SegmentMeta{ID: id, Shard: s, Rows: len(ids), Bytes: bytes})
	m.NextSegmentID++
	return nil
}

// openParts opens committed segments of a manifest flushing flushedRows
// rows for serving: every id a segment holds must be below flushedRows.
// Each store is block-cached under its own directory name: segment ids are
// never reused, so a retired id cannot alias cached chunks.
func (db *DB) openParts(metas []SegmentMeta, flushedRows int) ([]*segment, error) {
	opts := shard.OpenOptions{Limiter: db.opts.Limiter, Workers: db.opts.Workers, BlockCache: db.opts.BlockCache}
	segs := make([]*segment, len(metas))
	for i, meta := range metas {
		name := SegmentDirName(meta.ID)
		dir := filepath.Join(db.dir, name)
		part, err := shard.OpenPart(dir, db.grid, meta.Rows, flushedRows, name+"/", opts)
		if err != nil {
			return nil, fmt.Errorf("stream: segment %d: %w", meta.ID, err)
		}
		part.Store.Instrument(db.opts.Registry)
		segs[i] = &segment{meta: meta, dir: dir, part: part}
	}
	return segs, nil
}
