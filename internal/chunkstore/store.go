package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/blockcache"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/vec"
)

// ErrLayoutMismatch reports that a store directory holds another layout
// than the one the caller asked for — a static store opened live, or a
// shard count other than the requested one — or that a cell id lies
// outside the store's grid.
// Match with errors.Is.
var ErrLayoutMismatch = errors.New("store layout does not match requested mode")

// DefaultTargetChunkBytes is the paper's Table 1 setting ("Size of
// Individual Data Chunk: 470KB"), which the full-scale reproduction
// targets (experiment.FullConfig). The quick-mode experiment harness
// deliberately overrides it down to 16KB (experiment.DefaultConfig) so
// that multi-chunk read paths are exercised at small N — see EXPERIMENTS.md
// "Table 1" and ablation A1 for the measured size trade-off.
const DefaultTargetChunkBytes = 470 * 1024

// BuildOptions configures Build and BuildRows.
type BuildOptions struct {
	// TargetChunkBytes is the equal-size chunk target; chunks are cut as
	// soon as their encoded payload reaches it. Zero selects
	// DefaultTargetChunkBytes.
	TargetChunkBytes int
	// Limiter, when non-nil, meters chunk reads (not writes: Build is the
	// once-per-dataset initialization phase). It is retained by the
	// returned Store.
	Limiter *iothrottle.Limiter
}

// SegmentFunc returns the grid segment of value v on dimension dim (the
// grid's own SegmentOf; this package cannot import the grid).
type SegmentFunc func(dim int, v float64) (int, error)

// BlockCache is the store's shared decoded-chunk cache type: decoded
// chunks keyed by chunk name, SIEVE-evicted under a byte budget, with
// single-flight miss deduplication.
type BlockCache = blockcache.Cache[Postings]

// NewBlockCache builds a decoded-chunk cache over a byte-budget ledger.
// Install it with SetBlockCache; one cache may back many stores as long as
// their chunk names cannot collide (stores over distinct directories
// should use distinct caches).
func NewBlockCache(budget *memcache.Budget) (*BlockCache, error) {
	return blockcache.New[Postings](budget)
}

// Store is an opened chunk store. Reads are safe for concurrent use; the
// store's mutable state is its I/O counters and the optional shared block
// cache installed before first use.
type Store struct {
	dir      string
	manifest *Manifest
	limiter  *iothrottle.Limiter
	// files[dim] is dimension dim's data file, open from Open to Close;
	// nil for a dimension without chunks. held counts the open ones.
	files  []*os.File
	held   int
	closed atomic.Bool
	// cache, when non-nil, holds decoded chunks so every consumer —
	// session views, the ordered read pipeline, the prefetcher — shares
	// one read+decode per hot chunk. Set at open time, before reads.
	cache *BlockCache
	// workers bounds the concurrent chunk reads of the ordered read
	// pipeline (ReadChunksOrdered); <= 1 means fully sequential.
	workers int
	// cachePrefix namespaces this store's block-cache keys. Shard stores
	// reuse the same chunk names (d00_c00000, ...), so sharing one cache
	// across shards requires a distinct prefix per store.
	cachePrefix string

	bytesRead  atomic.Int64
	chunksRead atomic.Int64

	// scratch pools the row-id tables of MergeChunks and FetchRows (*scratch).
	scratch sync.Pool

	// Observability instruments (nil until Instrument; nil-safe no-ops),
	// bound once: the read path loads them without synchronization.
	instrument sync.Once
	mBytes     *obs.Counter
	mChunks    *obs.Counter
	hRead      *obs.Histogram
	gFiles     *obs.Gauge
}

// newStore is the one constructor of an open store over manifest m, whose
// validate has run: it opens the data file of every dimension that has
// chunks and refuses one whose size is not its chunks' Bytes summed, with
// one fstat, before any buffer is sized.
func newStore(dir string, m *Manifest, limiter *iothrottle.Limiter) (*Store, error) {
	s := &Store{dir: dir, manifest: m, limiter: limiter, files: make([]*os.File, len(m.Chunks))}
	for d, chunks := range m.Chunks {
		if len(chunks) == 0 {
			continue
		}
		last := chunks[len(chunks)-1]
		f, err := openDataFile(filepath.Join(dir, dataFileName(d)), last.Offset+last.Bytes)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.files[d] = f
		s.held++
	}
	return s, nil
}

// openDataFile opens a dimension's data file and checks it holds size
// bytes.
func openDataFile(path string, size int64) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chunkstore: open data file: %w", err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() != size {
		err = fmt.Errorf("chunkstore: data file %s is %d bytes, its chunks in the manifest %d", path, st.Size(), size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Open loads an existing store's manifest. limiter may be nil for
// unthrottled reads. A store directory (package shard) keeps one such
// store in each part subdirectory.
func Open(dir string, limiter *iothrottle.Limiter) (*Store, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	return newStore(dir, m, limiter)
}

// BuildEmpty writes a valid zero-row store into dir: a manifest carrying
// the schema and (externally supplied) bounds, and no data files. Sharded
// builds use it for shards that own no rows, so every shard directory
// opens uniformly; BuildRows keeps refusing an empty input for
// user-facing stores.
func BuildEmpty(dir string, columns []string, bounds vec.Box, targetChunkBytes int) (*Store, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("chunkstore: empty store needs at least one column")
	}
	if targetChunkBytes == 0 {
		targetChunkBytes = DefaultTargetChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkstore: create %s: %w", dir, err)
	}
	m := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Columns:          append([]string(nil), columns...),
		RowCount:         0,
		TargetChunkBytes: targetChunkBytes,
		Chunks:           make([][]ChunkMeta, len(columns)),
		MinValues:        append([]float64(nil), bounds.Min...),
		MaxValues:        append([]float64(nil), bounds.Max...),
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := saveManifest(dir, m); err != nil {
		return nil, err
	}
	return newStore(dir, m, nil)
}

// Manifest returns the store's metadata. Callers must treat it as
// read-only.
func (s *Store) Manifest() *Manifest { return s.manifest }

// Dims returns the number of dimensions.
func (s *Store) Dims() int { return len(s.manifest.Columns) }

// RowCount returns the number of tuples in the store.
func (s *Store) RowCount() int { return s.manifest.RowCount }

// Bounds returns the per-dimension value bounds recorded at build time.
func (s *Store) Bounds() vec.Box {
	return vec.NewBox(s.manifest.MinValues, s.manifest.MaxValues)
}

// TotalBytes returns the on-disk payload size of all chunks, the
// denominator of "memory budget as a fraction of data size".
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, dim := range s.manifest.Chunks {
		for _, c := range dim {
			n += c.Bytes
		}
	}
	return n
}

// ChunksOverlapping returns the metadata of dimension dim's chunks whose
// value range intersects [lo, hi], in sequence order. Because chunk ranges
// are disjoint and ascending, this is the contiguous run the mapping method
// m records for a subspace.
func (s *Store) ChunksOverlapping(dim int, lo, hi float64) ([]ChunkMeta, error) {
	if dim < 0 || dim >= s.Dims() {
		return nil, fmt.Errorf("chunkstore: dimension %d out of range [0,%d)", dim, s.Dims())
	}
	if lo > hi {
		return nil, fmt.Errorf("chunkstore: inverted range [%g,%g]", lo, hi)
	}
	var out []ChunkMeta
	for _, c := range s.manifest.Chunks[dim] {
		if c.MaxValue < lo {
			continue
		}
		if c.MinValue > hi {
			break
		}
		out = append(out, c)
	}
	return out, nil
}

// Instrument registers the store's I/O metrics with a registry:
// chunkstore_read_bytes_total, chunkstore_chunk_opens_total (chunk reads
// from disk), the per-chunk read latency histogram
// chunkstore_chunk_read_seconds (the pread alone: neither the throttle's
// wait nor the decode), and the gauge uei_chunkstore_open_files, the data
// files every store instrumented on the registry holds open: this store's
// count from now until its Close. Whoever opens the store calls it before
// its first read and before sharing it; the first registry wins and later
// calls, and calls after Close, are no-ops, so a reader handed an
// already-shared store (a coordinator rebuilt over live segments other
// epochs still read) cannot race the read path by instrumenting it again.
func (s *Store) Instrument(reg *obs.Registry) {
	s.instrument.Do(func() {
		s.mBytes = reg.Counter("chunkstore_read_bytes_total")
		s.mChunks = reg.Counter("chunkstore_chunk_opens_total")
		s.hRead = reg.Histogram("chunkstore_chunk_read_seconds", nil)
		s.gFiles = reg.Gauge("uei_chunkstore_open_files")
		s.gFiles.Add(float64(s.held))
	})
}

// SetWorkers bounds the fan-out of concurrent chunk reads during cell
// reconstruction. Values <= 1 keep every read path fully sequential.
func (s *Store) SetWorkers(n int) { s.workers = n }

// SetBlockCache installs a shared decoded-chunk cache on every read path
// of this store. It must be called before reads begin (it is not
// synchronized against them). With a cache installed, the decoded chunks
// ReadChunk and ReadChunksOrdered deliver are shared between all callers
// and must be treated as immutable — every consumer only reads them.
func (s *Store) SetBlockCache(c *BlockCache) { s.cache = c }

// SetCacheKeyPrefix namespaces this store's entries in a shared block
// cache. Stores over distinct directories give their chunks identical
// names, so a cache shared between them (the sharded layout) must be
// installed with a unique prefix per store. Like SetBlockCache it must be
// called before reads begin.
func (s *Store) SetCacheKeyPrefix(prefix string) { s.cachePrefix = prefix }

// ReadChunk loads and decodes one chunk as one Entry per value: the read
// every other path makes (through the block cache when there is one) plus
// the Postings.Entries view of it. Nothing in the program calls it: it
// stays because benchmark/layers.go times it for chunkstore.read_chunk_us,
// chunkstore.decode_mb_s and blockcache.get_hit_ns — so those time the view
// too — and a change outside benchmark/ may not edit that file; the next
// benchmark change drops it. With a block cache installed the row ids are
// the cached, shared ones and must not be mutated.
func (s *Store) ReadChunk(ctx context.Context, meta ChunkMeta) ([]Entry, error) {
	p, err := s.readChunkFor(ctx, meta, new(Postings))
	if err != nil {
		return nil, err
	}
	return p.Entries(), nil
}

// readChunkFor reads one chunk: through the block cache when there is one,
// which then owns the decoded chunk, otherwise into p. A miss decodes into
// storage of its own sized exactly from the header (three allocations),
// which is what the cache keeps. Every read, a cache hit too, first holds
// m to the manifest's own record of its chunk — callers of ReadChunk and
// MergeChunks supply their own — and fails once the store is closed.
func (s *Store) readChunkFor(ctx context.Context, m ChunkMeta, p *Postings) (Postings, error) {
	if s.closed.Load() {
		return Postings{}, fmt.Errorf("chunkstore: store %s is closed", s.dir)
	}
	d, q := m.Dim, m.Seq
	if d < 0 || d >= len(s.files) || q < 0 || q >= len(s.manifest.Chunks[d]) || m != s.manifest.Chunks[d][q] {
		return Postings{}, fmt.Errorf("chunkstore: chunk %s (dim %d seq %d) is not the manifest's record of %s", m.File, d, q, s.dir)
	}
	if s.cache == nil {
		return s.readChunkInto(ctx, m, p)
	}
	return s.cache.GetOrLoad(ctx, s.cachePrefix+m.File, func(ctx context.Context) (Postings, int64, error) {
		p, err := s.readChunkInto(ctx, m, new(Postings))
		return p, p.Bytes(), err
	})
}

// readChunkInto wraps the raw disk read in a "chunk_read" span when the
// context is traced (the guard is one context lookup, so the untraced
// hot path stays free). The result aliases p until its next decode.
func (s *Store) readChunkInto(ctx context.Context, meta ChunkMeta, p *Postings) (Postings, error) {
	if obs.SpanFromContext(ctx) == nil {
		return s.readChunkIntoRaw(ctx, meta, p)
	}
	_, span := obs.StartSpan(ctx, "chunk_read")
	got, err := s.readChunkIntoRaw(ctx, meta, p)
	attrs := map[string]float64{"dim": float64(meta.Dim), "seq": float64(meta.Seq)}
	if err != nil {
		span.SetOutcome("error")
	} else {
		attrs["bytes"] = float64(meta.Bytes)
	}
	span.End(attrs)
	return got, err
}

// readChunkIntoRaw is the uncached read path: one pread of the chunk's
// extent, CRC check, header check against meta, decode into p, I/O
// accounting. The raw buffer is recycled as soon as the decode (which
// copies everything out) finishes. A read racing Close fails on the closed
// file.
func (s *Store) readChunkIntoRaw(ctx context.Context, meta ChunkMeta, p *Postings) (Postings, error) {
	if err := ctx.Err(); err != nil {
		return Postings{}, err
	}
	start := time.Now()
	bp, err := readExtent(s.files[meta.Dim], &meta)
	if err != nil {
		return Postings{}, err
	}
	s.hRead.ObserveDuration(time.Since(start))
	defer putFileBuf(bp)
	data := *bp
	s.limiter.Acquire(int64(len(data)))
	s.bytesRead.Add(int64(len(data)))
	s.chunksRead.Add(1)
	s.mBytes.Add(int64(len(data)))
	s.mChunks.Inc()
	if _, err := decodeChunkInto(data, p, &meta); err != nil {
		return Postings{}, fmt.Errorf("chunkstore: chunk %s of %s: %w", meta.File, dataFileName(meta.Dim), err)
	}
	return *p, nil
}

// Close closes the store's data files and takes them off the open-files
// gauge. Reads after it fail naming the store; a read already past that
// check fails on the closed file. Closing twice is harmless. The opener of
// a store closes it; views, snapshots and coordinators sharing it do not.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// A store closed before Instrument is never counted; one instrumented
	// concurrently is counted before this reads the gauge.
	s.instrument.Do(func() {})
	s.gFiles.Add(-float64(s.held))
	var errs []error
	for _, f := range s.files {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(errs...)
}

// DecodedEntriesBytes is the footprint of a chunk decoded as entries: per
// entry the value and the Rows slice header, four bytes per row id, plus
// the outer slice header. Nothing in the program calls it (the block cache
// charges Postings.Bytes): it stays because benchmark/layers.go divides by
// it for chunkstore.decode_mb_s and a change outside benchmark/ may not
// edit that file; the next benchmark change drops it.
func DecodedEntriesBytes(entries []Entry) int64 {
	n := int64(24) // outer slice header
	for i := range entries {
		n += 32 + int64(len(entries[i].Rows))*4
	}
	return n
}

// ReadChunksOrdered reads and decodes the given chunks — concurrently, with
// fan-out bounded by SetWorkers — and delivers them to visit strictly in
// slice order, one at a time. It overlaps chunk I/O and CRC/decode with the
// caller's merge CPU while preserving the sequential merge semantics, so
// results are identical to a sequential loop. At most `workers` decoded
// chunks are in memory at once (the §3.1 one-chunk discipline relaxed to
// the configured fan-out). With workers <= 1 it degrades to the plain loop.
//
// p is valid until visit returns: without a block cache its arrays are
// pooled storage the next chunk is decoded over, so a visit copies out what
// it keeps (as §3.1 has it: one chunk in memory, released before the next).
// With a block cache they are the cached, shared, immutable arrays.
func (s *Store) ReadChunksOrdered(ctx context.Context, metas []ChunkMeta, visit func(meta ChunkMeta, p Postings) error) error {
	w := s.workers
	if w > len(metas) {
		w = len(metas)
	}
	if w <= 1 {
		buf := postingsPool.Get().(*Postings)
		defer postingsPool.Put(buf)
		for _, m := range metas {
			p, err := s.readChunkFor(ctx, m, buf)
			if err != nil {
				return err
			}
			if err := visit(m, p); err != nil {
				return err
			}
		}
		return nil
	}

	type res struct {
		p   Postings
		buf *Postings
		err error
	}
	results := make([]chan res, len(metas))
	for i := range results {
		results[i] = make(chan res, 1)
	}
	// done releases the dispatcher and any in-flight readers when the
	// consumer returns early (error or cancellation), so no goroutine leaks.
	done := make(chan struct{})
	defer close(done)
	// sem holds one token per dispatched-but-not-consumed chunk, bounding
	// both concurrent reads and buffered decoded chunks to w.
	sem := make(chan struct{}, w)
	go func() {
		for i, m := range metas {
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			}
			go func(i int, m ChunkMeta) {
				buf := postingsPool.Get().(*Postings)
				p, err := s.readChunkFor(ctx, m, buf)
				select {
				case results[i] <- res{p, buf, err}:
					// The consumer pools buf after the visit; if it has
					// left, buf is dropped with the channel.
				case <-done:
					postingsPool.Put(buf)
				}
			}(i, m)
		}
	}()
	for i, m := range metas {
		r := <-results[i]
		<-sem
		if r.err == nil {
			r.err = visit(m, r.p)
		}
		// The reader that filled r.buf has finished and the visit is over:
		// nothing can write or read it until the pool hands it out again.
		postingsPool.Put(r.buf)
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// IOStats returns cumulative bytes and chunks read through this store.
func (s *Store) IOStats() (bytes int64, chunks int64) {
	return s.bytesRead.Load(), s.chunksRead.Load()
}

// ResetIOStats zeroes the I/O counters (between experiment phases).
func (s *Store) ResetIOStats() {
	s.bytesRead.Store(0)
	s.chunksRead.Store(0)
}
