package stream

import (
	"fmt"
	"path/filepath"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/shard"
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

// buildSegment materializes rows (global ids `ids`, ascending) as segment
// id under db.dir and returns its meta. Zero rows build an explicit empty
// store so every segment directory is uniform.
func (db *DB) buildSegment(id int, shardID int, ids []uint32, rows [][]float64) (SegmentMeta, error) {
	sdir := filepath.Join(db.dir, SegmentDirName(id))
	var st *chunkstore.Store
	var err error
	if len(rows) == 0 {
		st, err = chunkstore.BuildEmpty(sdir, db.columns, db.bounds, db.target)
	} else {
		sub := dataset.New(db.schema, len(rows))
		for i, row := range rows {
			if _, aerr := sub.Append(row); aerr != nil {
				return SegmentMeta{}, fmt.Errorf("stream: segment %d row %d: %w", id, i, aerr)
			}
		}
		st, err = chunkstore.Build(sdir, sub, chunkstore.BuildOptions{TargetChunkBytes: db.target})
	}
	if err != nil {
		return SegmentMeta{}, err
	}
	if err := shard.SaveIDMap(sdir, ids); err != nil {
		return SegmentMeta{}, err
	}
	return SegmentMeta{ID: id, Shard: shardID, Rows: len(rows), Bytes: st.TotalBytes()}, nil
}

// openSegment opens a committed segment directory and installs the shared
// block cache under a per-segment key prefix (segment ids are globally
// unique and never reused, so retired ids cannot alias cached chunks).
func (db *DB) openSegment(meta SegmentMeta) (*segment, error) {
	sdir := filepath.Join(db.dir, SegmentDirName(meta.ID))
	st, err := chunkstore.Open(sdir, db.opts.Limiter)
	if err != nil {
		return nil, fmt.Errorf("stream: segment %d: %w", meta.ID, err)
	}
	if st.RowCount() != meta.Rows {
		return nil, fmt.Errorf("stream: segment %d holds %d rows, manifest says %d", meta.ID, st.RowCount(), meta.Rows)
	}
	if st.Dims() != len(db.columns) {
		return nil, fmt.Errorf("stream: segment %d has %d dims, manifest says %d", meta.ID, st.Dims(), len(db.columns))
	}
	st.SetWorkers(db.opts.Workers)
	st.Instrument(db.opts.Registry)
	if db.opts.BlockCache != nil {
		st.SetCacheKeyPrefix(SegmentDirName(meta.ID) + "/")
		st.SetBlockCache(db.opts.BlockCache)
	}
	mp, err := grid.BuildMapping(db.grid, st)
	if err != nil {
		return nil, fmt.Errorf("stream: segment %d: %w", meta.ID, err)
	}
	ids, err := shard.LoadIDMap(sdir)
	if err != nil {
		return nil, fmt.Errorf("stream: segment %d: %w", meta.ID, err)
	}
	if len(ids) != meta.Rows {
		return nil, fmt.Errorf("stream: segment %d idmap has %d entries, manifest says %d rows", meta.ID, len(ids), meta.Rows)
	}
	return &segment{
		meta: meta,
		dir:  sdir,
		part: shard.Part{Store: st, Mapping: mp, IDMap: ids},
	}, nil
}
