// Package stream implements the live write path of the UEI: an LSM-style
// WAL-backed memtable absorbing appended rows, background flushes that
// fold frozen memtables into immutable chunk-store segments, a
// copy-on-write manifest whose monotonically increasing epochs replace the
// static commit point, and a compactor that merges small segments and
// retires superseded ones once no live snapshot pins them. Readers pin a
// snapshot epoch (MVCC at flush granularity): a pinned epoch's segment set
// is immutable, so a session over it is byte-identical to one over a
// static index built from exactly that epoch's rows, while appends land
// concurrently.
//
// Grid geometry is fixed at creation (bounds + segments per dimension), so
// cell identity, symbolic index points, and cell→shard ownership are
// epoch-invariant; what is recomputed per epoch is the cells' chunk
// mappings and statistics over the new segment set. Appends outside the
// pinned bounds are rejected — absorbing them would silently remap every
// cell mid-session.
package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/vec"
)

// ErrClosed reports use of a closed DB.
var ErrClosed = errors.New("stream: db closed")

// ErrOutOfBounds marks an appended row outside the grid bounds pinned at
// creation. Match with errors.Is.
var ErrOutOfBounds = errors.New("stream: row outside pinned grid bounds")

// DefaultMemtableBytes is the freeze threshold when Options.MemtableBytes
// is zero.
const DefaultMemtableBytes = 4 << 20

// DefaultCompactSegments is the per-shard segment count that triggers
// background compaction when Options.CompactSegments is zero.
const DefaultCompactSegments = 6

// defaultSegmentsPerDim mirrors core's grid default.
const defaultSegmentsPerDim = 5

// CreateOptions configures Create.
type CreateOptions struct {
	// Shards is the layout width: 1 (or 0) = flat, else [2, shard.MaxShards].
	Shards int
	// SegmentsPerDim fixes the grid (0 = the core default, 5).
	SegmentsPerDim int
	// TargetChunkBytes is the per-segment chunk size target (0 = the
	// chunkstore default).
	TargetChunkBytes int
}

// Options configures Open.
type Options struct {
	// Limiter meters every segment store's chunk reads (one shared
	// limiter — the segments model one storage device).
	Limiter *iothrottle.Limiter
	// Workers bounds each segment store's internal read fan-out.
	Workers int
	// BlockCache, when non-nil, is shared across all segment stores under
	// per-segment cache key prefixes.
	BlockCache *chunkstore.BlockCache
	// Registry receives the stream_* instruments (nil = private registry).
	Registry *obs.Registry
	// MemtableBytes freezes the active memtable once its decoded payload
	// reaches this size (0 = DefaultMemtableBytes).
	MemtableBytes int64
	// FlushInterval additionally freezes+flushes on a timer regardless of
	// size, so trickle appends become visible (0 disables the timer;
	// size-triggered and explicit flushes still run).
	FlushInterval time.Duration
	// CompactSegments triggers background compaction of a shard once it
	// holds at least this many segments (0 = DefaultCompactSegments).
	CompactSegments int
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = DefaultMemtableBytes
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = DefaultCompactSegments
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// retiredSegment is a superseded segment awaiting epoch-based reclamation:
// its directory is deleted only once no live snapshot pins an epoch that
// can still read it (pinned epoch < retiredAt).
type retiredSegment struct {
	seg       *segment
	retiredAt uint64
}

// DB is an open live store. One process owns the write path (Append,
// flush, compaction); any number of goroutines may Acquire read
// snapshots concurrently.
type DB struct {
	dir  string
	opts Options

	// Fixed at creation (epoch-invariant).
	schema  dataset.Schema
	columns []string
	bounds  vec.Box
	grid    *grid.Grid
	shards  int
	segsPD  int
	target  int
	owners  []int // cell → owning shard; nil for flat layouts

	// flushMu serializes flush and compaction commits (mu is held only
	// for brief state swaps, never across segment builds).
	flushMu sync.Mutex

	mu       sync.Mutex
	man      *Manifest
	segs     map[int]*segment // open segments: current manifest's + retired-but-pinned
	mem      *memtable
	wal      *walWriter
	frozen   []frozenMem
	nextID   uint32
	nextSeq  int            // next WAL generation
	walMax   map[int]uint32 // wal seq → max row id it holds (only non-empty files)
	pins     map[uint64]int // epoch → live snapshot count
	retired  []retiredSegment
	closed   bool
	flushErr error // sticky background flush failure, surfaced on Append

	stop     chan struct{}
	flushC   chan struct{}
	compactC chan struct{}
	bg       sync.WaitGroup

	failpoint func(stage string) error

	mMemBytes   *obs.Gauge
	mEpoch      *obs.Gauge
	mSegments   *obs.Gauge
	mLiveEpochs *obs.Gauge
	mAppends    *obs.Counter
	mAppendRows *obs.Counter
	mFlushes    *obs.Counter
	mCompacts   *obs.Counter
	mRetired    *obs.Counter
	hFlush      *obs.Histogram
	hCompact    *obs.Histogram
	hFsync      *obs.Histogram
}

// Create materializes a new live store under dir (which must be empty or
// absent) from an initial dataset, committing manifest epoch 1. The
// dataset pins the grid bounds, so it must be non-empty and should cover
// the value range appends will arrive in.
func Create(dir string, ds *dataset.Dataset, opts CreateOptions) error {
	shards := opts.Shards
	if shards == 0 {
		shards = 1
	}
	if shards != 1 && (shards < 2 || shards > shard.MaxShards) {
		return fmt.Errorf("stream: shard count %d out of range", shards)
	}
	if ds.Len() == 0 {
		return fmt.Errorf("stream: refusing to create from an empty dataset (bounds would be undefined)")
	}
	segsPD := opts.SegmentsPerDim
	if segsPD == 0 {
		segsPD = defaultSegmentsPerDim
	}
	target := opts.TargetChunkBytes
	if target == 0 {
		target = chunkstore.DefaultTargetChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("stream: create %s: %w", dir, err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return fmt.Errorf("stream: inspect %s: %w", dir, err)
	} else if len(entries) > 0 {
		return fmt.Errorf("stream: directory %s is not empty", dir)
	}
	if err := os.MkdirAll(filepath.Join(dir, walDir), 0o755); err != nil {
		return fmt.Errorf("stream: create wal dir: %w", err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return err
	}
	g, err := grid.New(bounds, segsPD)
	if err != nil {
		return err
	}
	man := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Epoch:            1,
		Shards:           shards,
		SegmentsPerDim:   segsPD,
		Columns:          ds.Schema().Names(),
		MinValues:        append([]float64(nil), bounds.Min...),
		MaxValues:        append([]float64(nil), bounds.Max...),
		TargetChunkBytes: target,
		FlushedRows:      ds.Len(),
	}
	scratch := &DB{
		dir: dir, schema: ds.Schema(), columns: man.Columns,
		bounds: bounds, grid: g, shards: shards, segsPD: segsPD, target: target,
	}
	if shards > 1 {
		if scratch.owners, err = shard.CellOwners(g, shards); err != nil {
			return err
		}
	}
	// Partition the initial rows exactly like a flush would: one segment
	// per shard (flat = one segment total), zero-row shards get an
	// explicit empty segment so every shard has a uniform resting place.
	groups, err := scratch.partition(0, rowsOf(ds))
	if err != nil {
		return err
	}
	nextID := 1
	for s := 0; s < shards; s++ {
		meta, err := scratch.buildSegment(nextID, s, groups[s].ids, groups[s].rows)
		if err != nil {
			return err
		}
		man.Segments = append(man.Segments, meta)
		nextID++
	}
	man.NextSegmentID = nextID
	return commitManifest(dir, man)
}

// rowGroup is one shard's slice of a flush: aligned global ids and rows.
type rowGroup struct {
	ids  []uint32
	rows [][]float64
}

// partition splits rows (global ids firstID..firstID+n-1, in id order)
// into per-shard groups by the owner of each row's grid cell; with a flat
// layout everything lands in group 0. Id order is preserved, so each
// group's ids stay strictly ascending.
func (db *DB) partition(firstID uint32, rows [][]float64) ([]rowGroup, error) {
	n := db.shards
	groups := make([]rowGroup, n)
	for i, row := range rows {
		owner := 0
		if n > 1 {
			cell, err := db.grid.CellOf(row)
			if err != nil {
				return nil, fmt.Errorf("stream: row %d: %w", int(firstID)+i, err)
			}
			owner = db.owners[cell]
		}
		groups[owner].ids = append(groups[owner].ids, firstID+uint32(i))
		groups[owner].rows = append(groups[owner].rows, row)
	}
	return groups, nil
}

func rowsOf(ds *dataset.Dataset) [][]float64 {
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.Row(dataset.RowID(i))
	}
	return rows
}

// Open opens a live store, recovering from any crash: stale manifests and
// orphan segment directories (a flush that died before its commit) are
// removed, and WAL records above the committed FlushedRows high-water mark
// replay into a fresh memtable — no acknowledged append is ever lost.
// Background flush and compaction goroutines start here and are joined by
// Close.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	man, err := loadCurrentManifest(dir)
	if err != nil {
		return nil, err
	}
	bounds := vec.NewBox(man.MinValues, man.MaxValues)
	g, err := grid.New(bounds, man.SegmentsPerDim)
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(man.Columns...)
	if err != nil {
		return nil, err
	}
	db := &DB{
		dir:      dir,
		opts:     opts,
		schema:   schema,
		columns:  man.Columns,
		bounds:   bounds,
		grid:     g,
		shards:   man.Shards,
		segsPD:   man.SegmentsPerDim,
		target:   man.TargetChunkBytes,
		man:      man,
		segs:     make(map[int]*segment),
		pins:     make(map[uint64]int),
		walMax:   make(map[int]uint32),
		stop:     make(chan struct{}),
		flushC:   make(chan struct{}, 1),
		compactC: make(chan struct{}, 1),
	}
	if man.Shards > 1 {
		if db.owners, err = shard.CellOwners(g, man.Shards); err != nil {
			return nil, err
		}
	}
	if err := db.removeOrphans(); err != nil {
		return nil, err
	}
	for _, meta := range man.Segments {
		seg, err := db.openSegment(meta)
		if err != nil {
			return nil, err
		}
		db.segs[meta.ID] = seg
	}
	if err := db.recoverWAL(); err != nil {
		return nil, err
	}
	db.instrument(opts.Registry)
	db.bg.Add(2)
	go db.flushLoop()
	go db.compactLoop()
	return db, nil
}

// removeOrphans deletes manifests other than CURRENT's and segment
// directories the current manifest does not reference — the debris of a
// crash between segment build and commit. No snapshot can pin them at
// open, so removal is always safe here.
func (db *DB) removeOrphans() error {
	live := make(map[string]bool, len(db.man.Segments))
	for _, s := range db.man.Segments {
		live[SegmentDirName(s.ID)] = true
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("stream: inspect %s: %w", db.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && e.IsDir() && !live[name]:
			if err := os.RemoveAll(filepath.Join(db.dir, name)); err != nil {
				return fmt.Errorf("stream: remove orphan %s: %w", name, err)
			}
		case strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".json") && name != ManifestFileName(db.man.Epoch):
			if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
				return fmt.Errorf("stream: remove stale %s: %w", name, err)
			}
		}
	}
	return nil
}

// recoverWAL replays every log generation in order, keeps rows the
// manifest has not flushed, rebuilds the active memtable from them, and
// opens a fresh generation for new appends. Fully-covered old log files
// are deleted; partially-covered ones stay until the next flush commit
// retires them.
func (db *DB) recoverWAL() error {
	seqs, err := walSeqs(db.dir)
	if err != nil {
		return err
	}
	flushed := uint32(db.man.FlushedRows)
	db.nextID = flushed
	mem := &memtable{firstID: flushed}
	maxSeq := -1
	for _, seq := range seqs {
		path := filepath.Join(db.dir, walDir, WALFileName(seq))
		recs, err := readWALFile(path, len(db.columns))
		if err != nil {
			return fmt.Errorf("stream: wal %d: %w", seq, err)
		}
		var fileMax uint32
		fileRows := 0
		for _, rec := range recs {
			for i, row := range rec.rows {
				id := rec.firstID + uint32(i)
				if id < flushed {
					continue // already in a committed segment
				}
				if id != db.nextID {
					return fmt.Errorf("stream: wal %d: row id %d, expected %d (gap in the log)", seq, id, db.nextID)
				}
				mem.rows = append(mem.rows, row)
				mem.bytes += int64(8 * len(row))
				db.nextID = id + 1
			}
			fileMax = rec.firstID + uint32(len(rec.rows)) - 1
			fileRows += len(rec.rows)
		}
		if fileRows == 0 || fileMax < flushed {
			// Every record is covered by the committed manifest (or the
			// file is empty): the crash happened after commit but before
			// the flusher deleted it.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("stream: remove covered wal %d: %w", seq, err)
			}
			continue
		}
		db.walMax[seq] = fileMax
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	db.mem = mem
	db.nextSeq = maxSeq + 1
	w, err := newWALWriter(db.dir, db.nextSeq)
	if err != nil {
		return err
	}
	db.wal = w
	db.nextSeq++
	// Recovered rows are durable in the old generations; the fresh writer
	// only takes new appends. Freeze the recovered memtable immediately if
	// it is non-empty so the next flush folds it in and retires the old
	// files.
	if mem.len() > 0 {
		db.frozen = append(db.frozen, frozenMem{mem: mem, walSeq: -1})
		db.mem = &memtable{firstID: db.nextID}
		db.signal(db.flushC)
	}
	return nil
}

func (db *DB) instrument(reg *obs.Registry) {
	db.mMemBytes = reg.Gauge("stream_memtable_bytes")
	db.mEpoch = reg.Gauge("stream_epoch")
	db.mSegments = reg.Gauge("stream_segments")
	db.mLiveEpochs = reg.Gauge("stream_live_epochs")
	db.mAppends = reg.Counter("stream_appends_total")
	db.mAppendRows = reg.Counter("stream_append_rows_total")
	db.mFlushes = reg.Counter("stream_flush_total")
	db.mCompacts = reg.Counter("stream_compact_total")
	db.mRetired = reg.Counter("stream_segments_retired_total")
	db.hFlush = reg.Histogram("stream_flush_seconds", obs.DefaultLatencyBuckets())
	db.hCompact = reg.Histogram("stream_compact_seconds", obs.DefaultLatencyBuckets())
	db.hFsync = reg.Histogram("stream_wal_fsync_seconds", obs.DefaultLatencyBuckets())
	db.mEpoch.SetInt(int64(db.man.Epoch))
	db.mSegments.SetInt(int64(len(db.man.Segments)))
}

// signal nudges a background loop without blocking (the channels carry
// one pending wake-up at most).
func (db *DB) signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Append validates rows against the pinned bounds, assigns them dense
// global ids, makes them durable (one fsynced WAL record), and admits
// them to the memtable. Rows become read-visible only once a flush
// commits them into a manifest epoch; the returned firstID names the
// batch's first row. Safe for concurrent use.
func (db *DB) Append(rows [][]float64) (firstID uint32, err error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("stream: empty append")
	}
	dims := len(db.columns)
	for i, row := range rows {
		if len(row) != dims {
			return 0, fmt.Errorf("stream: append row %d has %d values, store has %d dims", i, len(row), dims)
		}
		if _, err := db.grid.CellOf(row); err != nil {
			return 0, fmt.Errorf("stream: append row %d %v: %w", i, row, ErrOutOfBounds)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	if db.flushErr != nil {
		// A failed background flush means durability bookkeeping is
		// wedged; refuse new writes rather than grow the WAL forever.
		return 0, fmt.Errorf("stream: append rejected after flush failure: %w", db.flushErr)
	}
	firstID = db.nextID
	start := time.Now()
	if err := db.wal.append(firstID, rows, dims); err != nil {
		return 0, err
	}
	db.hFsync.ObserveDuration(time.Since(start))
	db.walMax[db.wal.seq] = db.wal.maxID
	for _, row := range rows {
		db.mem.rows = append(db.mem.rows, append([]float64(nil), row...))
		db.mem.bytes += int64(8 * dims)
	}
	db.nextID += uint32(len(rows))
	db.mAppends.Inc()
	db.mAppendRows.Add(int64(len(rows)))
	db.mMemBytes.Set(float64(db.memBytesLocked()))
	if db.mem.bytes >= db.opts.MemtableBytes {
		db.signal(db.flushC)
	}
	return firstID, nil
}

func (db *DB) memBytesLocked() int64 {
	b := db.mem.bytes
	for _, f := range db.frozen {
		b += f.mem.bytes
	}
	return b
}

// freezeLocked rotates the active memtable and WAL generation. Caller
// holds mu.
func (db *DB) freezeLocked() error {
	if db.mem.len() == 0 {
		return nil
	}
	w, err := newWALWriter(db.dir, db.nextSeq)
	if err != nil {
		return err
	}
	old := db.wal
	db.frozen = append(db.frozen, frozenMem{mem: db.mem, walSeq: old.seq})
	db.mem = &memtable{firstID: db.nextID}
	db.wal = w
	db.nextSeq++
	return old.close()
}

// Flush freezes the active memtable (if non-empty) and folds every frozen
// memtable into new committed segments, advancing the manifest epoch once
// per memtable. It returns once everything appended before the call is
// read-visible. No-op when there is nothing to flush.
func (db *DB) Flush(ctx context.Context) error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.freezeLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	return db.flushFrozen(ctx)
}

// flushFrozen drains the frozen queue. Caller holds flushMu.
func (db *DB) flushFrozen(ctx context.Context) error {
	for {
		db.mu.Lock()
		if len(db.frozen) == 0 {
			db.mu.Unlock()
			return nil
		}
		fm := db.frozen[0]
		man := db.man.clone()
		db.mu.Unlock()

		if err := db.flushOne(ctx, fm, man); err != nil {
			return err
		}
	}
}

// flushOne builds fm's segments, commits the next epoch, installs it, and
// retires fm's WAL generation(s). Caller holds flushMu.
func (db *DB) flushOne(ctx context.Context, fm frozenMem, man *Manifest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, obs.SpanFlush)
	start := time.Now()
	groups, err := db.partition(fm.mem.firstID, fm.mem.rows)
	if err != nil {
		sp.End(nil)
		return err
	}
	man.Epoch++
	for s := 0; s < db.shards; s++ {
		if len(groups[s].rows) == 0 {
			continue // flushes never write empty segments
		}
		meta, err := db.buildSegment(man.NextSegmentID, s, groups[s].ids, groups[s].rows)
		if err != nil {
			sp.End(nil)
			return err
		}
		man.Segments = append(man.Segments, meta)
		man.NextSegmentID++
	}
	man.FlushedRows += fm.mem.len()
	if fp := db.failpointFn(); fp != nil {
		if err := fp("flush-before-commit"); err != nil {
			sp.End(nil)
			return err
		}
	}
	if err := commitManifest(db.dir, man); err != nil {
		sp.End(nil)
		return err
	}
	// Open the new segments before installing the manifest so readers
	// never observe a manifest whose segments are not servable.
	newSegs := make([]*segment, 0, db.shards)
	for _, meta := range man.Segments {
		if meta.ID >= db.man.NextSegmentID {
			seg, err := db.openSegment(meta)
			if err != nil {
				return fmt.Errorf("stream: reopen flushed segment: %w", err)
			}
			newSegs = append(newSegs, seg)
		}
	}

	db.mu.Lock()
	for _, seg := range newSegs {
		db.segs[seg.meta.ID] = seg
	}
	db.man = man
	db.frozen = db.frozen[1:]
	db.mFlushes.Inc()
	db.mEpoch.SetInt(int64(man.Epoch))
	db.mSegments.SetInt(int64(len(man.Segments)))
	db.mMemBytes.Set(float64(db.memBytesLocked()))
	db.deleteCoveredWALsLocked()
	db.mu.Unlock()

	db.hFlush.ObserveDuration(time.Since(start))
	sp.End(map[string]float64{"rows": float64(fm.mem.len()), "epoch": float64(man.Epoch)})
	db.signal(db.compactC)
	return nil
}

// deleteCoveredWALsLocked removes log generations whose every row now
// rests in committed segments. Caller holds mu.
func (db *DB) deleteCoveredWALsLocked() {
	flushed := uint32(db.man.FlushedRows)
	for seq, maxID := range db.walMax {
		if seq == db.wal.seq || maxID >= flushed {
			continue
		}
		// Best effort: a leftover file is re-covered on the next open.
		if err := os.Remove(filepath.Join(db.dir, walDir, WALFileName(seq))); err == nil {
			delete(db.walMax, seq)
		}
	}
}

// Compact merges every shard's segments down to one and drops zero-row
// segments, committing one new epoch if anything changed. Superseded
// segments are retired, not deleted: reclamation waits until no live
// snapshot pins an epoch that reads them.
func (db *DB) Compact(ctx context.Context) error {
	return db.compact(ctx, 2)
}

// compact merges shards holding at least minSegs segments (or any zero-row
// segment). The background loop calls it with the configured threshold;
// Compact with 2 (full).
func (db *DB) compact(ctx context.Context, minSegs int) error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	man := db.man.clone()
	byShard := make(map[int][]*segment)
	for _, meta := range man.Segments {
		byShard[meta.Shard] = append(byShard[meta.Shard], db.segs[meta.ID])
	}
	db.mu.Unlock()

	var compactShards []int
	for s, segs := range byShard {
		zero := false
		for _, seg := range segs {
			if seg.meta.Rows == 0 {
				zero = true
			}
		}
		if len(segs) >= minSegs || (zero && db.shards > 1) || (zero && len(segs) > 1) {
			compactShards = append(compactShards, s)
		}
	}
	sort.Ints(compactShards)
	if len(compactShards) == 0 {
		return nil
	}

	_, sp := obs.StartSpan(ctx, obs.SpanCompact)
	start := time.Now()
	replaced := make(map[int]bool)
	var added []SegmentMeta
	for _, s := range compactShards {
		segs := byShard[s]
		if len(segs) == 1 && segs[0].meta.Rows > 0 {
			continue
		}
		var ids []uint32
		var rows [][]float64
		for _, seg := range segs {
			if seg.meta.Rows == 0 {
				replaced[seg.meta.ID] = true
				continue
			}
			all := make([]uint32, seg.meta.Rows)
			for i := range all {
				all[i] = uint32(i)
			}
			got, err := seg.part.Store.FetchRows(ctx, all)
			if err != nil {
				sp.End(nil)
				return fmt.Errorf("stream: compact segment %d: %w", seg.meta.ID, err)
			}
			for _, r := range got {
				ids = append(ids, seg.part.IDMap[r.ID])
				rows = append(rows, r.Vals)
			}
			replaced[seg.meta.ID] = true
		}
		if len(rows) > 0 {
			// Merge by global id: per-segment runs are ascending, so one
			// sort restores the global order a build-time shard would have.
			order := make([]int, len(ids))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
			mids := make([]uint32, len(ids))
			mrows := make([][]float64, len(rows))
			for i, o := range order {
				mids[i] = ids[o]
				mrows[i] = rows[o]
			}
			meta, err := db.buildSegment(man.NextSegmentID, s, mids, mrows)
			if err != nil {
				sp.End(nil)
				return err
			}
			added = append(added, meta)
			man.NextSegmentID++
		} else if db.shards == 1 && len(segs) > 0 && allZero(segs) {
			// A flat store must keep at least one segment so the layout
			// stays openable and uniform; keep the first, retire the rest.
			keep := segs[0].meta.ID
			delete(replaced, keep)
		}
	}
	if len(replaced) == 0 && len(added) == 0 {
		sp.End(nil)
		return nil
	}
	man.Epoch++
	kept := man.Segments[:0:0]
	for _, meta := range man.Segments {
		if !replaced[meta.ID] {
			kept = append(kept, meta)
		}
	}
	man.Segments = append(kept, added...)
	if err := commitManifest(db.dir, man); err != nil {
		sp.End(nil)
		return err
	}
	newSegs := make([]*segment, 0, len(added))
	for _, meta := range added {
		seg, err := db.openSegment(meta)
		if err != nil {
			return fmt.Errorf("stream: reopen compacted segment: %w", err)
		}
		newSegs = append(newSegs, seg)
	}

	db.mu.Lock()
	for id := range replaced {
		if seg := db.segs[id]; seg != nil {
			db.retired = append(db.retired, retiredSegment{seg: seg, retiredAt: man.Epoch})
		}
	}
	for _, seg := range newSegs {
		db.segs[seg.meta.ID] = seg
	}
	db.man = man
	db.mCompacts.Inc()
	db.mEpoch.SetInt(int64(man.Epoch))
	db.mSegments.SetInt(int64(len(man.Segments)))
	db.sweepRetiredLocked()
	db.mu.Unlock()

	db.hCompact.ObserveDuration(time.Since(start))
	sp.End(map[string]float64{"replaced": float64(len(replaced)), "added": float64(len(added)), "epoch": float64(man.Epoch)})
	return nil
}

func allZero(segs []*segment) bool {
	for _, s := range segs {
		if s.meta.Rows > 0 {
			return false
		}
	}
	return true
}

// sweepRetiredLocked deletes retired segment directories no live snapshot
// can read: a snapshot pinned at epoch E reads segments retired at epochs
// strictly greater than E, so a retiree is reclaimable once every pinned
// epoch is >= its retirement epoch. Caller holds mu.
func (db *DB) sweepRetiredLocked() {
	minPinned := ^uint64(0)
	for e := range db.pins {
		if e < minPinned {
			minPinned = e
		}
	}
	kept := db.retired[:0]
	for _, r := range db.retired {
		if minPinned < r.retiredAt {
			kept = append(kept, r)
			continue
		}
		delete(db.segs, r.seg.meta.ID)
		os.RemoveAll(r.seg.dir)
		db.mRetired.Inc()
	}
	db.retired = kept
}

// flushLoop is the background flusher: size-triggered via Append's
// signal, optionally time-triggered via FlushInterval.
func (db *DB) flushLoop() {
	defer db.bg.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if db.opts.FlushInterval > 0 {
		tick = time.NewTicker(db.opts.FlushInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-db.stop:
			return
		case <-db.flushC:
		case <-tickC:
		}
		db.backgroundFlush()
	}
}

// backgroundFlush freezes when the active memtable crossed the threshold
// (or a timer fired with any pending rows) and drains the frozen queue.
// Failures are sticky: they park the write path rather than spin.
func (db *DB) backgroundFlush() {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	if db.mem.bytes >= db.opts.MemtableBytes || (db.opts.FlushInterval > 0 && db.mem.len() > 0) {
		if err := db.freezeLocked(); err != nil {
			db.flushErr = err
			db.mu.Unlock()
			return
		}
	}
	db.mu.Unlock()
	if err := db.flushFrozen(context.Background()); err != nil {
		db.mu.Lock()
		db.flushErr = err
		db.mu.Unlock()
	}
}

// compactLoop runs threshold-triggered compaction after flush commits.
func (db *DB) compactLoop() {
	defer db.bg.Done()
	for {
		select {
		case <-db.stop:
			return
		case <-db.compactC:
		}
		// Threshold compaction; errors are reported through the next
		// explicit Compact (background compaction is advisory).
		_ = db.compact(context.Background(), db.opts.CompactSegments)
	}
}

// Acquire pins the current epoch and returns its immutable snapshot.
func (db *DB) Acquire() (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	man := db.man
	segs := make([]*segment, len(man.Segments))
	for i, meta := range man.Segments {
		segs[i] = db.segs[meta.ID]
		if segs[i] == nil {
			return nil, fmt.Errorf("stream: segment %d of epoch %d not open", meta.ID, man.Epoch)
		}
	}
	db.pins[man.Epoch]++
	db.mLiveEpochs.SetInt(int64(len(db.pins)))
	return &Snapshot{db: db, man: man, segs: segs}, nil
}

// release unpins a snapshot's epoch and reclaims newly unreferenced
// retired segments.
func (db *DB) release(epoch uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := db.pins[epoch]; n > 1 {
		db.pins[epoch] = n - 1
	} else {
		delete(db.pins, epoch)
	}
	db.mLiveEpochs.SetInt(int64(len(db.pins)))
	if !db.closed {
		db.sweepRetiredLocked()
	}
}

// Epoch returns the current committed epoch.
func (db *DB) Epoch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.man.Epoch
}

// TotalRows counts every acknowledged row: flushed (read-visible) plus
// memtable-resident (durable, awaiting flush).
func (db *DB) TotalRows() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int(db.nextID)
}

// FlushedRows counts the read-visible rows of the current epoch.
func (db *DB) FlushedRows() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.man.FlushedRows
}

// Grid returns the fixed grid (epoch-invariant).
func (db *DB) Grid() *grid.Grid { return db.grid }

// Bounds returns the pinned value bounds.
func (db *DB) Bounds() vec.Box { return db.bounds }

// Columns returns the attribute names in dimension order.
func (db *DB) Columns() []string { return db.columns }

// Shards returns the layout width (1 = flat).
func (db *DB) Shards() int { return db.shards }

// SegmentsPerDim returns the fixed per-dimension grid resolution.
func (db *DB) SegmentsPerDim() int { return db.segsPD }

// SetFailpoint installs a hook invoked at named stages of the write path
// ("flush-before-commit"); returning an error aborts the operation there.
// Crash-injection seam for recovery tests; nil removes it.
func (db *DB) SetFailpoint(fp func(stage string) error) {
	db.mu.Lock()
	db.failpoint = fp
	db.mu.Unlock()
}

func (db *DB) failpointFn() func(stage string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failpoint
}

// Close stops and joins the background flusher and compactor, closes the
// active WAL writer, and marks the DB closed. It does NOT flush: pending
// memtable rows stay durable in the WAL and replay on the next Open.
// Idempotent and safe against concurrent Append/Acquire.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	close(db.stop)
	db.mu.Unlock()
	db.bg.Wait()
	// The loops are joined: nothing touches the writer anymore.
	return db.wal.close()
}
