package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/pool"
	"github.com/uei-db/uei/internal/vec"
)

// ErrShardUnavailable marks a shard that missed its deadline or failed an
// operation. A cell load's caller degrades on it (another cell, the
// resident region); fetches and retrieval need every shard and surface it.
// Match with errors.Is.
var ErrShardUnavailable = errors.New("shard unavailable")

// Operation names passed to the fault hook and used in error messages and
// span names.
const (
	OpLoad     = "load"
	OpFetch    = "fetch"
	OpRetrieve = "retrieve"
)

// FaultHook intercepts every shard attempt before it runs — the test seam
// for forcing timeouts and failures. Hooks must honor ctx: the per-attempt
// deadline and caller cancellation reach a stuck attempt only through it.
type FaultHook func(ctx context.Context, shard int, op string) error

// Shard is one self-contained slice of the sharded store: one part per
// segment it owns — exactly one in a first epoch, more as a live store
// flushes — and reads merge the parts by global id.
type Shard struct {
	// ID is the shard index in [0, S).
	ID int
	// Parts are the shard's immutable data parts. Rows are disjoint
	// across parts (every global row rests in exactly one part).
	Parts []Part
}

// RowCount sums the parts' rows.
func (s *Shard) RowCount() int {
	n := 0
	for i := range s.Parts {
		n += s.Parts[i].RowCount()
	}
	return n
}

// OpenOptions configures Open and NewLocalCoordinator.
type OpenOptions struct {
	// Pool is the caller's worker pool, borrowed rather than owning
	// threads: its worker count sizes RetrieveStream's scratch slots, and
	// ScoreAllPass shards across it. Nil means one worker, inline on the
	// calling goroutine.
	Pool *pool.Pool
	// Deadline bounds every per-shard attempt; a cell load whose owner
	// misses it degrades the step. Zero disables the deadline.
	Deadline time.Duration
	// Limiter, when non-nil, meters chunk reads of every shard store
	// (one shared limiter — the shards model one storage device).
	Limiter *iothrottle.Limiter
	// Workers bounds each shard store's internal read fan-out.
	Workers int
	// BlockCache, when non-nil, is shared across all shard stores; each
	// store is installed with a distinct cache key prefix so identical
	// chunk names in different shards cannot collide.
	BlockCache *chunkstore.BlockCache
}

// Meta bundles the immutable identity of an opened sharded store — the
// facts the old Grid/Manifest/Bounds/Columns/Dims/RowCount/TotalBytes
// accessor sprawl exposed one by one. It is a value: copy freely.
type Meta struct {
	// Grid is the global symbolic-point lattice (identical to a one-shard
	// store's grid over the same dataset).
	Grid *grid.Grid
	// Points is the symbolic index point set P — Grid's cell centres in
	// cell-id order, packed by column once per store and shared read-only
	// by every scoring pass, view and epoch.
	Points *kernel.Block
	// Columns are the attribute names in dimension order (read-only).
	Columns []string
	// RowCount is the number of tuples across all shards.
	RowCount int
	// Bounds are the global per-dimension value bounds.
	Bounds vec.Box
	// TotalBytes sums the on-disk chunk payload of every shard.
	TotalBytes int64
}

// Dims returns the dimensionality.
func (m Meta) Dims() int { return len(m.Columns) }

// Coordinator owns the symbolic index — the packed cell centres, scored
// and ranked in-process on the caller's pool — and routes everything that
// needs rows to the in-process shards holding them: a cell load to the
// cell's owner, fetches and retrieval to every shard. Its results are
// exactly those of one store over the same dataset (S = 1 is that store).
//
// When a shard fails or misses its deadline, a cell load degrades (the
// caller falls back to another shard's cell) and fetches and retrieval
// fail with ErrShardUnavailable.
//
// The coordinator is safe for concurrent use by multiple sessions once
// constructed; SetFaultHook may be called at any time. The per-shard
// attempt deadline is fixed at construction.
type Coordinator struct {
	meta Meta
	// shards[s] is shard s; backends[s] reads it over the store's grid.
	shards   []*Shard
	backends []*LocalBackend
	// ownerByCell[cell] is the owning shard of each grid cell.
	ownerByCell []int
	// pool is OpenOptions.Pool, borrowed from the caller; never nil.
	pool  *pool.Pool
	cache *chunkstore.BlockCache

	deadline time.Duration // per-shard attempt deadline; 0 = none
	hook     atomic.Pointer[FaultHook]

	instruments
}

// instruments are the coordinator's counters, bound by Instrument and
// shared by the epochs of one store (NextEpoch). mDegraded counts cell
// loads the owner did not answer (shard_degraded_total); nil-safe. The
// cause-split counters attribute each to a deadline miss vs a shard error,
// and mSkip[i] counts those of shard i specifically.
type instruments struct {
	mDegraded         *obs.Counter
	mDegradedDeadline *obs.Counter
	mDegradedError    *obs.Counter
	mSkip             []*obs.Counter
}

// Open opens the current epoch of the store under dir, read-only, over the
// grid its manifest records: each shard reads its segments' parts, in
// manifest order. It opens a static build and a live store alike, and
// writes to neither; of a live store it reads the committed segments, not
// rows still in its WAL.
func Open(ctx context.Context, dir string, opts OpenOptions) (*Coordinator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	g, err := man.Grid()
	if err != nil {
		return nil, err
	}
	return OpenEpoch(dir, man, g, opts)
}

// OpenEpoch opens the epoch man of the store under dir over grid g, as
// Open does. g must be man.Grid() unless the store is one static shard,
// whose cell ownership does not depend on the grid, so any grid over the
// manifest's bounds serves it.
func OpenEpoch(dir string, man *Manifest, g *grid.Grid, opts OpenOptions) (*Coordinator, error) {
	parts, err := OpenSegments(dir, g, man.Segments, man.FlushedRows, opts)
	if err != nil {
		return nil, err
	}
	c, err := NewLocalCoordinator(g, man.Columns, GroupShards(man.Shards, man.Segments, parts), opts)
	if err != nil {
		closeParts(parts)
		return nil, err
	}
	return c, nil
}

// NewLocalCoordinator assembles a coordinator over already-open in-process
// shards on grid g with the given columns — the tail of OpenEpoch, also
// the entry point for live (stream) snapshots, whose shards are opened and
// cached by the stream DB. Shard IDs are (re)assigned here, and cells are owned
// by OwnerOf over len(shards).
func NewLocalCoordinator(g *grid.Grid, columns []string, shards []*Shard, opts OpenOptions) (*Coordinator, error) {
	if len(shards) < 1 || len(shards) > MaxShards {
		return nil, fmt.Errorf("shard: %d shards, want 1..%d", len(shards), MaxShards)
	}
	if len(columns) != g.Dims() {
		return nil, fmt.Errorf("shard: %d columns for a %d-dimensional grid", len(columns), g.Dims())
	}
	if opts.Deadline < 0 {
		return nil, fmt.Errorf("shard: negative deadline %v", opts.Deadline)
	}
	owners, err := CellOwners(g, len(shards))
	if err != nil {
		return nil, err
	}
	if opts.Pool == nil {
		opts.Pool = pool.New(1) // one worker runs inline and owns no goroutine
	}
	c := &Coordinator{
		ownerByCell: owners,
		pool:        opts.Pool,
		cache:       opts.BlockCache,
		deadline:    opts.Deadline,
		meta: Meta{
			Grid:    g,
			Points:  kernel.Pack(g.Centers()),
			Columns: columns,
			Bounds:  g.Bounds(),
		},
	}
	c.setShards(shards)
	return c, nil
}

// setShards installs the shards of c's epoch, numbering them and summing
// their rows and on-disk bytes.
func (c *Coordinator) setShards(shards []*Shard) {
	c.shards = shards
	c.backends = make([]*LocalBackend, len(shards))
	c.meta.RowCount = 0
	c.meta.TotalBytes = 0
	for s, sh := range shards {
		sh.ID = s
		c.backends[s] = &LocalBackend{shard: sh, g: c.meta.Grid}
		c.meta.RowCount += sh.RowCount()
		for i := range sh.Parts {
			c.meta.TotalBytes += sh.Parts[i].Store.TotalBytes()
		}
	}
}

// NextEpoch returns a coordinator over another epoch of the local store c
// serves (a live snapshot advance): shards carry the new epoch's parts,
// while everything an epoch cannot change — grid, cell ownership, the
// packed symbolic points, pool, block cache, deadlines, instruments — is
// shared with c instead of rebuilt, so an advance costs O(S), not
// O(cells), in time and memory.
func (c *Coordinator) NextEpoch(shards []*Shard) (*Coordinator, error) {
	if len(shards) != len(c.shards) {
		return nil, fmt.Errorf("shard: next epoch has %d shards, the local coordinator %d", len(shards), len(c.shards))
	}
	next := &Coordinator{
		meta:        c.meta,
		ownerByCell: c.ownerByCell,
		pool:        c.pool,
		cache:       c.cache,
		deadline:    c.deadline,
		instruments: c.instruments,
	}
	next.setShards(shards)
	return next, nil
}

// Close closes the store of every part c holds; a second call is
// harmless. Only the owner of the parts calls it: a live snapshot's parts
// belong to the stream DB, which closes them itself.
func (c *Coordinator) Close() {
	for _, sh := range c.shards {
		closeParts(sh.Parts)
	}
}

// Meta returns the store's immutable identity in one value — grid, shard
// count, columns, bounds, row count, on-disk bytes.
func (c *Coordinator) Meta() Meta { return c.meta }

// NumShards returns S.
func (c *Coordinator) NumShards() int { return len(c.backends) }

// Backends returns shard s's reader as a one-element slice (read-only).
// The slice type stays because benchmark/layers.go, its only reader besides
// tests, indexes [0] and a change outside benchmark/ may not edit that
// file; the next benchmark change makes it return the *LocalBackend.
func (c *Coordinator) Backends(s int) []*LocalBackend { return c.backends[s : s+1 : s+1] }

// BlockCache returns the shared decoded-chunk cache, or nil when caching
// is off.
func (c *Coordinator) BlockCache() *chunkstore.BlockCache { return c.cache }

// IOStats sums the cumulative disk bytes and chunks read across every
// part of every shard.
func (c *Coordinator) IOStats() (bytes int64, chunks int64) {
	for _, s := range c.shards {
		for i := range s.Parts {
			b, n := s.Parts[i].Store.IOStats()
			bytes += b
			chunks += n
		}
	}
	return bytes, chunks
}

// ResetIOStats zeroes every part store's I/O counters.
func (c *Coordinator) ResetIOStats() {
	for _, s := range c.shards {
		for i := range s.Parts {
			s.Parts[i].Store.ResetIOStats()
		}
	}
}

// OwnerOfCell returns the shard owning a cell. A cell id outside the grid
// means the caller's grid disagrees with the store's layout, so the error
// wraps chunkstore.ErrLayoutMismatch (match with errors.Is).
func (c *Coordinator) OwnerOfCell(cell grid.CellID) (int, error) {
	if cell < 0 || int(cell) >= len(c.ownerByCell) {
		return 0, fmt.Errorf("shard: cell %d outside grid [0,%d): %w", cell, len(c.ownerByCell), chunkstore.ErrLayoutMismatch)
	}
	return c.ownerByCell[cell], nil
}

// SetFaultHook installs (or, with nil, removes) the per-attempt fault
// hook. Test seam for degradation scenarios.
func (c *Coordinator) SetFaultHook(h FaultHook) {
	if h == nil {
		c.hook.Store(nil)
		return
	}
	c.hook.Store(&h)
}

// Instrument registers shard metrics — shard_degraded_total, its
// cause-split family shard_degraded_cause_total{cause=...}, the per-shard
// shard_skip_total{shard=i} set, the uei_shards gauge — and each shard
// store's I/O instruments (shared by name, so chunkstore counters
// aggregate across shards as over one store).
func (c *Coordinator) Instrument(reg *obs.Registry) {
	c.mDegraded = reg.Counter("shard_degraded_total")
	c.mDegradedDeadline = reg.Counter(`shard_degraded_cause_total{cause="deadline"}`)
	c.mDegradedError = reg.Counter(`shard_degraded_cause_total{cause="error"}`)
	c.mSkip = make([]*obs.Counter, len(c.backends))
	for i := range c.backends {
		c.mSkip[i] = reg.Counter(fmt.Sprintf("shard_skip_total{shard=\"%d\"}", i))
	}
	reg.Gauge("uei_shards").SetInt(int64(len(c.backends)))
	for _, s := range c.shards {
		for i := range s.Parts {
			s.Parts[i].Store.Instrument(reg)
		}
	}
}

// recordDegraded counts one failed cell load, attributing the cause
// (deadline miss vs shard error) and the shard identity. Nil-safe before
// Instrument.
func (c *Coordinator) recordDegraded(id int, err error) {
	c.mDegraded.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		c.mDegradedDeadline.Inc()
	} else {
		c.mDegradedError.Inc()
	}
	if id >= 0 && id < len(c.mSkip) {
		c.mSkip[id].Inc()
	}
}

// runAttempt runs one operation on shard shardID, on the caller's
// goroutine, under the per-attempt deadline and the fault hook.
// On a traced context it wraps the call in a "shard_<op>" span annotated
// with the shard id, the deadline, and the outcome (ok / timeout / error /
// cancelled) — the per-shard fan-out level of a step trace.
func runAttempt[T any](c *Coordinator, ctx context.Context, shardID int, op string, fn func(ctx context.Context, b *LocalBackend) (T, error)) (T, error) {
	var span *obs.Span
	sctx := ctx
	if obs.SpanFromContext(ctx) != nil {
		sctx, span = obs.StartSpan(ctx, "shard_"+op)
	}
	if c.deadline > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, c.deadline)
		defer cancel()
	}
	var v T
	var err error
	if h := c.hook.Load(); h != nil {
		err = (*h)(sctx, shardID, op)
	}
	if err == nil {
		v, err = fn(sctx, c.backends[shardID])
	}
	if span != nil {
		span.SetOutcome(shardOutcome(ctx, err))
		attrs := map[string]float64{"shard": float64(shardID)}
		if c.deadline > 0 {
			attrs["deadline_ms"] = float64(c.deadline) / float64(time.Millisecond)
		}
		span.End(attrs)
	}
	return v, err
}

// shardOutcome classifies a shard attempt result for span annotation.
// callerCtx is the context *outside* the per-attempt deadline: when it is
// cancelled the caller (or a scatter whose other leg failed) gave up,
// which is not shard degradation.
func shardOutcome(callerCtx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case callerCtx.Err() != nil:
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// scatterGather fans fn out to every shard — one goroutine per shard runs
// its runAttempt — and applies the results in the single gather goroutine
// (apply needs no locking). Its callers need every shard's rows, so the
// first shard that fails aborts the call with ErrShardUnavailable and
// cancels the others. Cancellation of ctx propagates to every in-flight
// attempt, and the buffered channel guarantees goroutine termination even
// when scatterGather returns early.
func scatterGather[T any](c *Coordinator, ctx context.Context, op string, fn func(ctx context.Context, b *LocalBackend) (T, error), apply func(shardID int, v T)) error {
	return scatterLegs(c, ctx, op, func(ctx context.Context, id int) (T, error) {
		return runAttempt(c, ctx, id, op, fn)
	}, apply)
}

// scatterLegs is scatterGather with the whole per-shard leg supplied by the
// caller, for a leg that does more than one runAttempt: RetrieveStream waits
// for a scratch slot before its attempt starts, so the wait is not charged
// to the shard's deadline.
func scatterLegs[T any](c *Coordinator, ctx context.Context, op string, leg func(ctx context.Context, shardID int) (T, error), apply func(shardID int, v T)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	scatterCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	type shardAnswer struct {
		id  int
		v   T
		err error
	}
	results := make(chan shardAnswer, len(c.backends))
	for id := range c.backends {
		go func(id int) {
			v, err := leg(scatterCtx, id)
			results <- shardAnswer{id, v, err}
		}(id)
	}
	for range c.backends {
		r := <-results
		if r.err == nil {
			apply(r.id, r.v)
			continue
		}
		if ctx.Err() != nil {
			// The caller cancelled: that is not a shard failure. The
			// deferred cancelAll stops any stragglers.
			return ctx.Err()
		}
		return fmt.Errorf("shard %d %s: %w", r.id, op, errors.Join(ErrShardUnavailable, r.err))
	}
	return nil
}

// ScorePass is the (empty) parameter set of a scoring pass.
type ScorePass struct {
	// Kernel is unread: every pass runs the block kernels. The field stays
	// declared because benchmark/layers.go, its only writer, sets it and a
	// change outside benchmark/ may not edit that file; the next benchmark
	// change drops both.
	Kernel bool
}

// ScoreAllPass recomputes the uncertainty of every symbolic index point
// from scratch into unc (indexed by cell id) with the block kernels on the
// coordinator's pool, over the one packed block of all centres. No shard is
// contacted: the centres are derived from the manifest's grid. unc is
// written only when the whole pass succeeded, so a cancelled pass leaves it
// as it was; the values are byte-identical to one serial pass at any worker
// count. (A DWKNN refit on a growing labeled set is scored incrementally by
// core.Index through a learn.NeighborTable instead; this is the pass for
// every other model.) degraded is always nil (no shard takes part); it
// stays in the signature for benchmark/layers.go.
func (c *Coordinator) ScoreAllPass(ctx context.Context, model learn.Classifier, unc []float64, _ ScorePass) (degraded []int, err error) {
	blk := c.meta.Points
	if len(unc) != blk.N {
		return nil, fmt.Errorf("shard: uncertainty slice has %d slots, grid has %d cells", len(unc), blk.N)
	}
	scores := make([]float64, blk.N)
	err = c.pool.Do(ctx, blk.N, func(lo, hi int) error {
		return learn.BlockUncertaintiesInto(ctx, model, blk, lo, hi, scores[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	copy(unc, scores)
	return nil, nil
}

// MostUncertain returns the k most uncertain cells — higher uncertainty
// first, lower cell id breaking ties, so the result equals the first k of a
// full sort — by one bounded-insertion scan over unc (k is tiny on the hot
// path: the winner and a runner-up). Cells owned by the shards listed in
// skip are passed over: a step whose winner could not be loaded asks for
// the best cell outside the shard that failed it. The result is shorter
// than k when fewer cells qualify. degraded is always nil (no shard takes
// part); it stays in the signature for benchmark/layers.go.
func (c *Coordinator) MostUncertain(ctx context.Context, unc []float64, k int, skip []int) (cells []grid.CellID, degraded []int, err error) {
	if len(unc) != len(c.ownerByCell) {
		return nil, nil, fmt.Errorf("shard: uncertainty slice has %d slots, grid has %d cells", len(unc), len(c.ownerByCell))
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if k < 1 {
		k = 1
	}
	var skipped []bool
	if len(skip) > 0 {
		skipped = make([]bool, len(c.backends))
		for _, s := range skip {
			if s >= 0 && s < len(skipped) {
				skipped[s] = true
			}
		}
	}
	cells = make([]grid.CellID, 0, min(k, len(unc)))
	for cell, u := range unc {
		if skipped != nil && skipped[c.ownerByCell[cell]] {
			continue
		}
		// Cells arrive in ascending id order, so only a strictly higher
		// score moves a cell ahead of one already placed.
		j := len(cells)
		if j == k {
			if !(u > unc[cells[k-1]]) {
				continue
			}
			j--
		} else {
			cells = append(cells, 0)
		}
		for j > 0 && u > unc[cells[j-1]] {
			cells[j] = cells[j-1]
			j--
		}
		cells[j] = grid.CellID(cell)
	}
	return cells, nil, nil
}

// LoadCell reconstructs a cell's tuples from its owning shard, with row
// ids remapped to global. Rows come back sorted by global id (local and
// global order agree within a shard). A failed owner yields an
// ErrShardUnavailable-wrapped error and counts toward
// shard_degraded_total; callers degrade (another shard's best cell, the
// resident region) rather than failing the step.
func (c *Coordinator) LoadCell(ctx context.Context, cell grid.CellID) (ids []uint32, vals [][]float64, entriesVisited int, err error) {
	owner, err := c.OwnerOfCell(cell)
	if err != nil {
		return nil, nil, 0, err
	}
	type loaded struct {
		ids     []uint32
		vals    [][]float64
		entries int
	}
	r, err := runAttempt(c, ctx, owner, OpLoad, func(sctx context.Context, b *LocalBackend) (loaded, error) {
		ids, vals, entries, err := b.LoadCell(sctx, cell)
		return loaded{ids, vals, entries}, err
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, 0, ctx.Err()
		}
		c.recordDegraded(owner, err)
		return nil, nil, 0, fmt.Errorf("shard %d %s: %w", owner, OpLoad, errors.Join(ErrShardUnavailable, err))
	}
	return r.ids, r.vals, r.entries, nil
}

// FetchRows reconstructs the tuples with the given global ids, scattering
// to every shard (each returns the subset it holds) and merging. It
// matches a chunk store's FetchRows contract: duplicates are collapsed,
// the result is sorted by (global) id, and out-of-range ids are an error.
// Sampling must see every shard, so this path is strict — an unavailable
// shard fails the call.
func (c *Coordinator) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	uniq := append([]uint32(nil), ids...)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if int(uniq[len(uniq)-1]) >= c.meta.RowCount {
		return nil, fmt.Errorf("shard: row %d out of range [0,%d)", uniq[len(uniq)-1], c.meta.RowCount)
	}
	perShard := make([][]chunkstore.MergedRow, len(c.backends))
	err := scatterGather(c, ctx, OpFetch,
		func(sctx context.Context, b *LocalBackend) ([]chunkstore.MergedRow, error) {
			return b.FetchRows(sctx, uniq)
		},
		func(id int, rows []chunkstore.MergedRow) {
			perShard[id] = rows
		})
	if err != nil {
		return nil, err
	}
	var out []chunkstore.MergedRow
	for _, rows := range perShard {
		out = gather(out, rows)
	}
	// One shard's rows arrive ascending; only a union needs the re-sort.
	if len(perShard) > 1 {
		slices.SortFunc(out, chunkstore.CompareRowID)
	}
	if len(out) != len(uniq) {
		return nil, fmt.Errorf("shard: fetched %d of %d requested rows; store is inconsistent", len(out), len(uniq))
	}
	return out, nil
}

// Retrieve runs the marked-segment scan on every shard and returns the
// shards' columnar parts, in shard then part order, neither merged nor
// sorted: parts hold disjoint rows, each ascending by global id. Retrieval
// is the final answer, so the scatter is strict: an unavailable shard
// fails the call rather than silently dropping rows. entries sums the
// posting entries every shard visited. Every part is held at once (41 B
// per row at five dimensions); result retrieval streams them through
// RetrieveStream instead.
func (c *Coordinator) Retrieve(ctx context.Context, marked [][]bool) (parts []RetrievedPart, entries int, err error) {
	perShard := make([][]RetrievedPart, len(c.backends))
	err = scatterGather(c, ctx, OpRetrieve,
		func(sctx context.Context, b *LocalBackend) (scanned, error) {
			parts, entries, err := b.Retrieve(sctx, marked)
			return scanned{parts, entries}, err
		},
		func(id int, s scanned) {
			perShard[id] = s.parts
			entries += s.entries
		})
	if err != nil {
		return nil, 0, err
	}
	return slices.Concat(perShard...), entries, nil
}

// scanned is one shard's gathered answer to a marked-segment scan.
type scanned struct {
	parts   []RetrievedPart
	entries int
}

// RetrieveStream is Retrieve as a stream: every data part is handed to
// visit as soon as it is scanned, and nothing is gathered. A part is valid
// only during its visit — its block lives in a scratch the next scan
// reuses — so visit copies whatever it keeps. visit runs concurrently for
// different shards, never twice at once for one shard, and not at all
// once RetrieveStream has returned; an error it returns ends the stream
// and is returned as it is.
//
// Each shard's leg goes through the strict scatter like Retrieve's, under
// the fault hook, the shard_retrieve span and the per-shard deadline. A leg
// holds one of Workers scratch slots (the coordinator pool's worker count)
// while it scans and visits, so at most Workers parts are in memory at once:
// 41 B per row of the largest part per slot at five dimensions, where
// Retrieve holds the whole store's. The slot is taken before the attempt
// starts, so waiting for one is not charged to the deadline, which covers
// the leg's scans and visits.
func (c *Coordinator) RetrieveStream(ctx context.Context, marked [][]bool, visit func(part RetrievedPart) error) (entries int, err error) {
	slots := make(chan *ScanScratch, c.pool.Workers())
	for range cap(slots) {
		slots <- new(ScanScratch)
	}
	take := func(ctx context.Context) (*ScanScratch, error) {
		select {
		case sc := <-slots:
			return sc, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// Visits run side by side; RetrieveStream waits for those in flight
	// and, once closed, turns every later one away. A leg the scatter gave
	// up on may still finish a scan after the call returns.
	var (
		mu       sync.Mutex
		closed   bool
		inFlight sync.WaitGroup
		visitErr error
	)
	guarded := func(p RetrievedPart) error {
		mu.Lock()
		if closed {
			mu.Unlock()
			return context.Canceled
		}
		inFlight.Add(1)
		mu.Unlock()
		defer inFlight.Done()
		err := visit(p)
		if err != nil {
			mu.Lock()
			if visitErr == nil {
				visitErr = err
			}
			mu.Unlock()
		}
		return err
	}

	leg := func(ctx context.Context, id int) (int, error) {
		sc, err := take(ctx)
		if err != nil {
			return 0, err
		}
		defer func() { slots <- sc }()
		return runAttempt(c, ctx, id, OpRetrieve, func(sctx context.Context, b *LocalBackend) (int, error) {
			entries := 0
			for i := range b.shard.Parts {
				p, pe, err := ScanMarked(sctx, b.g, &b.shard.Parts[i], marked, sc)
				if err != nil {
					return 0, err
				}
				if err := guarded(p); err != nil {
					return 0, err
				}
				entries += pe
			}
			return entries, nil
		})
	}
	err = scatterLegs(c, ctx, OpRetrieve, leg, func(_ int, n int) { entries += n })
	mu.Lock()
	closed = true
	mu.Unlock()
	inFlight.Wait()
	if visitErr != nil {
		return 0, visitErr
	}
	if err != nil {
		return 0, err
	}
	return entries, nil
}
