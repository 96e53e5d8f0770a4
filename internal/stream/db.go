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
)

// ErrClosed reports use of a closed DB.
var ErrClosed = errors.New("stream: db closed")

// ErrOutOfBounds marks an appended row outside the grid bounds pinned at
// creation. Match with errors.Is.
var ErrOutOfBounds = errors.New("stream: row outside pinned grid bounds")

// DefaultMemtableBytes is the memtable size that freezes it for a flush.
const DefaultMemtableBytes = 4 << 20

// DefaultCompactSegments is the per-shard segment count that triggers
// background compaction.
const DefaultCompactSegments = 6

// CreateOptions configures Create: the shard count (0 means 1, at most
// shard.MaxShards), the grid's segments per dimension (0 =
// grid.DefaultSegmentsPerDim) and the per-segment chunk size target (0 =
// the chunkstore default).
type CreateOptions = shard.BuildOptions

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
	// FlushInterval additionally freezes+flushes on a timer regardless of
	// size, so trickle appends become visible (0 disables the timer;
	// size-triggered and explicit flushes still run).
	FlushInterval time.Duration

	// memtableBytes freezes the active memtable once its decoded payload
	// reaches this size (0 = DefaultMemtableBytes). Tests raise it to keep
	// size-triggered flushes out.
	memtableBytes int64
}

func (o Options) withDefaults() Options {
	if o.memtableBytes <= 0 {
		o.memtableBytes = DefaultMemtableBytes
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
	schema dataset.Schema
	grid   *grid.Grid
	shards int
	owners []int // cell → owning shard; nil for a one-shard store

	// flushMu serializes flush and compaction commits (mu is held only
	// for brief state swaps, never across segment builds).
	flushMu sync.Mutex

	mu       sync.Mutex
	man      *shard.Manifest
	segs     map[int]*segment // open segments: current manifest's + retired-but-pinned
	mem      *memtable
	wal      *walWriter
	frozen   []*memtable
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
// absent) from an initial row source: the first epoch shard.Build writes,
// plus the empty wal/ directory that makes the store live, made before
// CURRENT commits the epoch. The source pins the grid bounds, so it must
// hold a row and should cover the value range appends will arrive in.
func Create(dir string, src dataset.Source, opts CreateOptions) error {
	man, err := shard.WriteFirstEpoch(dir, src, opts)
	if err != nil {
		return err
	}
	if err := os.Mkdir(filepath.Join(dir, walDir), 0o755); err != nil {
		return fmt.Errorf("stream: create wal dir: %w", err)
	}
	return shard.CommitManifest(dir, man)
}

// Open opens a live store, recovering from any crash: stale manifests and
// orphan segment directories (a flush that died before its commit) are
// removed, and WAL records above the committed FlushedRows high-water mark
// replay into a fresh memtable — no acknowledged append is ever lost.
// Background flush and compaction goroutines start here and are joined by
// Close. A store without wal/ is static: Open refuses it with
// chunkstore.ErrLayoutMismatch and writes nothing to it.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !IsLiveDir(dir) {
		return nil, fmt.Errorf("stream: %s holds a static store (no %s/ directory): %w", dir, walDir, chunkstore.ErrLayoutMismatch)
	}
	g, err := man.Grid()
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
		grid:     g,
		shards:   man.Shards,
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
	segs, err := db.openParts(man.Segments, man.FlushedRows)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		db.segs[seg.meta.ID] = seg
	}
	if err := db.recoverWAL(); err != nil {
		for _, seg := range segs {
			seg.part.Store.Close()
		}
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
		live[shard.SegmentDirName(s.ID)] = true
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
		case strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".json") && name != shard.ManifestFileName(db.man.Epoch):
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
	flushed := uint32(db.man.FlushedRows)
	mem := db.newMemtable(flushed)
	maxSeq := -1
	next, err := replayWAL(db.dir, db.schema.Dims(), flushed, func(seq int, path string, recs []walRecord) error {
		var fileMax uint32
		fileRows := 0
		for _, rec := range recs {
			for i, row := range rec.rows {
				if rec.firstID+uint32(i) < flushed {
					continue // already in a committed segment
				}
				mem.rows.Append(row)
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
			return nil
		}
		db.walMax[seq] = fileMax
		maxSeq = max(maxSeq, seq)
		return nil
	})
	if err != nil {
		return err
	}
	db.nextID = next
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
		db.frozen = append(db.frozen, mem)
		db.mem = db.newMemtable(db.nextID)
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
	dims := db.schema.Dims()
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
		db.mem.rows.Append(row)
	}
	db.nextID += uint32(len(rows))
	db.mAppends.Inc()
	db.mAppendRows.Add(int64(len(rows)))
	db.mMemBytes.Set(float64(db.memBytesLocked()))
	if db.mem.rows.SizeBytes() >= db.opts.memtableBytes {
		db.signal(db.flushC)
	}
	return firstID, nil
}

func (db *DB) memBytesLocked() int64 {
	b := db.mem.rows.SizeBytes()
	for _, f := range db.frozen {
		b += f.rows.SizeBytes()
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
	db.frozen = append(db.frozen, db.mem)
	db.mem = db.newMemtable(db.nextID)
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
		mem := db.frozen[0]
		man := db.man.Clone()
		db.mu.Unlock()

		if err := db.flushOne(ctx, mem, man); err != nil {
			return err
		}
	}
}

// flushOne builds mem's segments, commits the next epoch, installs it, and
// deletes the WAL generations every flushed row covers. Caller holds
// flushMu.
func (db *DB) flushOne(ctx context.Context, mem *memtable, man *shard.Manifest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, obs.SpanFlush)
	start := time.Now()
	man.Epoch++
	// Flushes never write empty segments.
	if err := man.WriteShards(db.dir, db.grid, db.owners, mem.rows, mem.firstID, mem.len(), false); err != nil {
		sp.End(nil)
		return err
	}
	man.FlushedRows += mem.len()
	if fp := db.failpointFn(); fp != nil {
		if err := fp("flush-before-commit"); err != nil {
			sp.End(nil)
			return err
		}
	}
	if err := shard.CommitManifest(db.dir, man); err != nil {
		sp.End(nil)
		return err
	}
	// Open the new segments before installing the manifest so readers
	// never observe a manifest whose segments are not servable.
	newSegs, err := db.openParts(man.Segments[len(db.man.Segments):], man.FlushedRows)
	if err != nil {
		return fmt.Errorf("stream: reopen flushed segment: %w", err)
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
	sp.End(map[string]float64{"rows": float64(mem.len()), "epoch": float64(man.Epoch)})
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
// segment). The background loop calls it with DefaultCompactSegments;
// Compact with 2 (full).
func (db *DB) compact(ctx context.Context, minSegs int) error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	man := db.man.Clone()
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
	added := 0
	for _, s := range compactShards {
		segs := byShard[s]
		if len(segs) == 1 && segs[0].meta.Rows > 0 {
			continue
		}
		var merged []chunkstore.MergedRow
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
				merged = append(merged, chunkstore.MergedRow{ID: seg.part.GlobalID(r.ID), Vals: r.Vals})
			}
			replaced[seg.meta.ID] = true
		}
		if len(merged) > 0 {
			// Merge by global id: per-segment runs are ascending, so one
			// sort restores the global order a build-time shard would have.
			sort.Slice(merged, func(a, b int) bool { return merged[a].ID < merged[b].ID })
			next := 0
			rows := func() (uint32, []float64, bool, error) {
				if next == len(merged) {
					return 0, nil, false, nil
				}
				next++
				return merged[next-1].ID, merged[next-1].Vals, true, nil
			}
			if _, err := man.WriteSegment(db.dir, s, rows, len(merged)); err != nil {
				sp.End(nil)
				return err
			}
			added++
		} else if db.shards == 1 && len(segs) > 0 && allZero(segs) {
			// A one-shard store must keep at least one segment so the
			// layout stays openable and uniform; keep the first, retire
			// the rest.
			keep := segs[0].meta.ID
			delete(replaced, keep)
		}
	}
	if len(replaced) == 0 && added == 0 {
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
	man.Segments = kept
	if err := shard.CommitManifest(db.dir, man); err != nil {
		sp.End(nil)
		return err
	}
	newSegs, err := db.openParts(man.Segments[len(man.Segments)-added:], man.FlushedRows)
	if err != nil {
		return fmt.Errorf("stream: reopen compacted segment: %w", err)
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
	sp.End(map[string]float64{"replaced": float64(len(replaced)), "added": float64(added), "epoch": float64(man.Epoch)})
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

// sweepRetiredLocked closes the stores of retired segments no live
// snapshot can read, and deletes their directories: a snapshot pinned at
// epoch E reads segments retired at epochs strictly greater than E, so a
// retiree is reclaimable once every pinned epoch is >= its retirement
// epoch. Caller holds mu.
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
		r.seg.part.Store.Close()
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
	if db.mem.rows.SizeBytes() >= db.opts.memtableBytes || (db.opts.FlushInterval > 0 && db.mem.len() > 0) {
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
		_ = db.compact(context.Background(), DefaultCompactSegments)
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

// Grid returns the fixed grid (epoch-invariant).
func (db *DB) Grid() *grid.Grid { return db.grid }

// Columns returns the attribute names in dimension order.
func (db *DB) Columns() []string { return db.schema.Names() }

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
// active WAL writer and every segment store (retired ones still pinned
// included), and marks the DB closed. It does NOT flush: pending memtable
// rows stay durable in the WAL and replay on the next Open. Idempotent and
// safe against concurrent Append/Acquire.
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
	// The loops are joined, and holding flushMu waits out an explicit
	// flush or compaction already past its closed check: nothing touches
	// the writer or the segment set anymore.
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	for _, seg := range db.segs {
		seg.part.Store.Close()
	}
	return db.wal.close()
}
