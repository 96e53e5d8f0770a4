package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/pool"
	"github.com/uei-db/uei/internal/prefetch"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
	"github.com/uei-db/uei/internal/vec"
)

// ErrClosed is returned by index operations after Close. It is re-exported
// by the facade so callers can errors.Is against it across the API
// boundary.
var ErrClosed = errors.New("uei: index is closed")

// ErrUnsupportedModel is returned when the symbolic index points are
// scored under a model other than *learn.DWKNN, the estimator of the
// paper's evaluation (Table 1) and the only one UEI keeps resumable score
// state for. It is re-exported by the facade.
var ErrUnsupportedModel = errors.New("uei: the index scores only a *learn.DWKNN model")

// ErrShardUnavailable is shard.ErrShardUnavailable, named here for the
// serving layer, which reaches shards only through the index: a sample,
// result retrieval or cell load that could not reach a shard wraps it.
var ErrShardUnavailable = shard.ErrShardUnavailable

// BuildOptions configures the once-per-dataset index initialization phase
// (Algorithm 2 lines 1-11).
type BuildOptions struct {
	// TargetChunkBytes is the equal-size chunk target (Table 1: 470 KB).
	// Zero selects chunkstore.DefaultTargetChunkBytes.
	TargetChunkBytes int
	// Shards partitions the dataset into this many self-contained shard
	// stores by hashing grid-cell coordinates. Every build writes the first
	// epoch of the one on-disk layout (CURRENT, an epoch manifest and one
	// seg-NNNNNN/ part per shard); 0 and 1 both write one shard, whose one
	// part holds every row and no idmap. Open reads the directory through
	// one shard coordinator.
	Shards int
	// SegmentsPerDim fixes the grid cells are hashed over (the epoch
	// manifest records it). Zero selects grid.DefaultSegmentsPerDim. With
	// more than one shard, or on a live store, Open must use the recorded
	// count (cell ownership and live cell geometry are grid-dependent); a
	// static one-shard store only records the grid Open uses when
	// Options.SegmentsPerDim is zero.
	SegmentsPerDim int
	// LiveIngest builds the live (stream) layout instead of a static one:
	// the same first epoch plus a wal/ directory, a write store whose
	// manifest epochs accept appends after the build. The dataset's
	// bounds pin the grid; later appends must fall inside them.
	LiveIngest bool
}

// Build performs the Index Initialization phase: vertical decomposition,
// sorting, chunking, and manifest persistence. The grid itself is cheap and
// is rebuilt at Open from the manifest's bounds, so only storage work
// happens here. The rows come from src — a *dataset.Dataset, or a
// *dataset.CSVFile streamed in bounded memory — which one shard reads
// once; with Shards > 1 it is read to pin the bounds, to place each row,
// and once per shard, whose self-contained part holds the rows of the
// cells it owns.
func Build(dir string, src dataset.Source, opts BuildOptions) error {
	bo := shard.BuildOptions{
		Shards:           opts.Shards,
		SegmentsPerDim:   opts.SegmentsPerDim,
		TargetChunkBytes: opts.TargetChunkBytes,
	}
	if opts.LiveIngest {
		return stream.Create(dir, src, bo)
	}
	return shard.Build(dir, src, bo)
}

// Index is an opened Uncertainty Estimation Index.
type Index struct {
	opts   Options
	grid   *grid.Grid
	budget *memcache.Budget
	cache  *memcache.Cache
	pf     *prefetch.Prefetcher
	// coord is the data plane: it scores and ranks the symbolic index
	// in-process and routes every storage touch — cell loads, row fetches,
	// the retrieval scan — to the shards holding the rows: one part per
	// shard in a static store, one part per segment in a live snapshot.
	// Views share the parent's coordinator.
	coord *shard.Coordinator
	// live, when non-nil, is the streaming write path (LSM store) and snap
	// the epoch this index currently reads: coord serves exactly snap's
	// segments and is rebuilt when the snapshot advances. Views borrow
	// live and pin their own clone of the parent's snapshot.
	live *stream.DB
	snap *stream.Snapshot
	// stepDegraded records whether the most recent EnsureRegion fell back
	// from the winning cell because its owner did not answer the load in
	// time. Surfaced to the IDE engine per iteration.
	stepDegraded bool

	// blk is the symbolic index point set P, in cell-id order, packed by
	// column: the coordinator's Meta().Points, packed once per Open and
	// shared by views and epochs — the point set is immutable, even under
	// live ingest (cell geometry is pinned at store creation).
	blk *kernel.Block
	// uncertainty[i] is the last computed uncertainty of point i of blk.
	uncertainty []float64
	// scoresValid records whether uncertainty reflects the current model.
	scoresValid bool

	// ptab is the incremental-rescore state (per-view, like uncertainty):
	// every symbolic point's k nearest labeled rows under the last DWKNN,
	// keyed by cell id. When the next model is the same DWKNN refit on an
	// append-only extension of the labeled set, each point's scan resumes
	// at the first new row and only points a new row is strictly nearer to
	// than their k-th neighbor are rescored. Its memory (stateBytes, also
	// the view's share of the uei_score_state_bytes gauge) is outside
	// MemoryBudgetBytes: charging it would change which region rows fit,
	// and with them every label sequence.
	ptab       learn.NeighborTable
	stateBytes int64
	// lastSkipped is how many of the |P| cells the most recent
	// UpdateUncertainty pass carried over unchanged.
	lastSkipped int

	// pendingCell is the cell whose background load started at its
	// selection, deferredFor the iterations a swap has been deferred since
	// the first selection of a cell other than the resident one, and theta
	// how many it is deferred before the swap waits for the pending load
	// (§3.2): a function of the rows read, the limiter and σ
	// (prefetch.Theta), so the swap iteration never depends on timing.
	deferredFor int
	pendingCell int
	theta       int

	// pool shards result retrieval's cell-centre posteriors and row
	// classification across Options.Workers goroutines, and coord borrows
	// it to size RetrieveStream's scratch slots; the scoring pass (DWKNN
	// only) is serial. With one worker everything runs inline.
	pool *pool.Pool
	// samples is the sample pool every view of the index draws U from;
	// views share the parent's, and only the parent's Close frees it.
	samples *samplePool
	// isView marks per-session views (NewView): the pool and store are
	// borrowed from the parent, so Close must not shut them down.
	isView bool
	// closed flips once; closeOnce makes Close idempotent and safe to call
	// concurrently with an in-flight prefetch load.
	closed    atomic.Bool
	closeOnce sync.Once

	// reg is never nil (Open substitutes a private registry); the
	// instruments below are atomic, so Stats() and a metrics endpoint can
	// read them while the loop and the prefetcher goroutine mutate them.
	reg       *obs.Registry
	mSwaps    *obs.Counter
	mDeferred *obs.Counter
	mPrefHits *obs.Counter
	mEntries  *obs.Counter
	// mCellsScored / mCellsSkipped split every scoring pass's |P| cells
	// into rescored and carried over unchanged, across all views of the
	// index; gStateBytes sums the incremental-scoring state of every view
	// and session on the registry. mRetrieveRows / mRetrieveSettled: rows
	// result retrieval classified, and those decided without a selection.
	mCellsScored     *obs.Counter
	mCellsSkipped    *obs.Counter
	mRetrieveRows    *obs.Counter
	mRetrieveSettled *obs.Counter
	gStateBytes      *obs.Gauge
	hScore           *obs.Histogram
	hLoad            *obs.Histogram
	hSwap            *obs.Histogram
}

// Open loads the index over a directory produced by Build, static or
// live. Options.Shards pins the expected shard count (0 accepts the
// recorded one); a mismatch fails with chunkstore.ErrLayoutMismatch. A
// directory is live iff it holds wal/; opening a static one writes nothing
// to it. I/O throttling and worker-pool sizing come from Options (Limiter,
// Workers).
func Open(ctx context.Context, dir string, opts Options) (*Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("core: shard count %d must not be negative", opts.Shards)
	}
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if stream.IsLiveDir(dir) {
		return openLive(dir, man, opts)
	}
	if opts.LiveIngest {
		return nil, fmt.Errorf("core: %s holds a static store, not a live-ingest layout: %w", dir, chunkstore.ErrLayoutMismatch)
	}
	return openStatic(dir, man, opts)
}

// newBlockCache builds the shared decoded-chunk cache of
// Options.BlockCacheBytes, or nil when caching is off.
func newBlockCache(bytes int64) (*chunkstore.BlockCache, error) {
	if bytes <= 0 {
		return nil, nil
	}
	budget, err := memcache.NewBudget(bytes)
	if err != nil {
		return nil, err
	}
	return chunkstore.NewBlockCache(budget)
}

// openOptions maps the index options onto the coordinator's: pl scores
// the symbolic index.
func openOptions(opts Options, pl *pool.Pool, bc *chunkstore.BlockCache) shard.OpenOptions {
	return shard.OpenOptions{
		Pool:       pl,
		Deadline:   opts.ShardDeadline,
		Limiter:    opts.Limiter,
		Workers:    opts.Workers,
		BlockCache: bc,
	}
}

// pinLayout resolves Shards and SegmentsPerDim against the layout that
// what recorded: a shard count other than the recorded one fails with
// chunkstore.ErrLayoutMismatch, and a different segment count fails too,
// since cell ownership and live cell geometry are grid-dependent.
func (o *Options) pinLayout(what string, shards, segmentsPerDim int) error {
	if o.Shards != 0 && o.Shards != shards {
		return fmt.Errorf("core: %s holds %d shard(s) but %d were requested: %w", what, shards, o.Shards, chunkstore.ErrLayoutMismatch)
	}
	if o.SegmentsPerDim != 0 && o.SegmentsPerDim != segmentsPerDim {
		return fmt.Errorf("core: %s was laid out over %d segments per dimension; cannot open with %d (cell ownership and geometry are grid-dependent)", what, segmentsPerDim, o.SegmentsPerDim)
	}
	o.SegmentsPerDim = segmentsPerDim
	return nil
}

// openStatic opens the static store whose current epoch is man through a
// coordinator (shard.OpenEpoch), over a grid cut from the manifest's
// bounds. With several shards the grid has the segment count recorded at
// ingest. One shard owns every cell whatever the grid, so nothing on disk
// depends on it, and Options.SegmentsPerDim picks it (the recorded count
// when zero).
func openStatic(dir string, man *shard.Manifest, opts Options) (*Index, error) {
	segments := man.SegmentsPerDim
	if man.Shards == 1 && opts.SegmentsPerDim != 0 {
		segments = opts.SegmentsPerDim
	}
	if err := opts.pinLayout(dir, man.Shards, segments); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	g, err := grid.New(vec.NewBox(man.MinValues, man.MaxValues), opts.SegmentsPerDim)
	if err != nil {
		return nil, err
	}
	bc, err := newBlockCache(opts.BlockCacheBytes)
	if err != nil {
		return nil, err
	}
	pl := pool.New(opts.Workers)
	coord, err := shard.OpenEpoch(dir, man, g, openOptions(opts, pl, bc))
	if err != nil {
		pl.Close()
		return nil, err
	}
	return newIndex(opts, coord, pl)
}

// newUnlabeledCache builds the memory ledger and the unlabeled cache U an
// index or view explores through.
func newUnlabeledCache(opts Options, dims int) (*memcache.Budget, *memcache.Cache, error) {
	budget, err := memcache.NewBudget(opts.MemoryBudgetBytes)
	if err != nil {
		return nil, nil, err
	}
	cache, err := memcache.NewCache(budget, dims)
	if err != nil {
		return nil, nil, err
	}
	if err := cache.SetMaxRegions(opts.ResidentRegions); err != nil {
		return nil, nil, err
	}
	return budget, cache, nil
}

// newIndex finishes an Open over any coordinator, static or live:
// memory budget, unlabeled cache, metrics wiring, optional prefetcher.
// opts has been through withDefaults. It owns pl, closing it when
// construction fails.
func newIndex(opts Options, coord *shard.Coordinator, pl *pool.Pool) (*Index, error) {
	meta := coord.Meta()
	g := meta.Grid
	budget, cache, err := newUnlabeledCache(opts, meta.Dims())
	if err != nil {
		pl.Close()
		return nil, err
	}
	reg := opts.Registry
	coord.Instrument(reg)
	if bc := coord.BlockCache(); bc != nil {
		bc.Instrument(reg)
	}
	budget.Instrument(reg)
	pl.Instrument(reg)
	idx := &Index{
		opts:        opts,
		coord:       coord,
		pool:        pl,
		grid:        g,
		budget:      budget,
		cache:       cache,
		blk:         meta.Points,
		samples:     newSamplePool(meta.Dims(), reg),
		uncertainty: make([]float64, g.NumCells()),
		pendingCell: memcache.NoRegion,
		reg:         reg,
	}
	idx.instrument()
	if opts.EnablePrefetch {
		if err := idx.startPrefetcher(); err != nil {
			pl.Close()
			return nil, err
		}
	}
	return idx, nil
}

// instrument binds the index's counters and phase histograms. The
// registry's instruments are get-or-create by name, so every view's
// series aggregate into the parent's.
func (x *Index) instrument() {
	x.mSwaps = x.reg.Counter("uei_region_swaps_total")
	x.mDeferred = x.reg.Counter("uei_swaps_deferred_total")
	x.mPrefHits = x.reg.Counter("uei_prefetch_hits_total")
	x.mEntries = x.reg.Counter("uei_entries_visited_total")
	x.mCellsScored = x.reg.Counter("uei_score_scored_cells_total")
	x.mCellsSkipped = x.reg.Counter("uei_score_skipped_cells_total")
	x.mRetrieveRows = x.reg.Counter("uei_retrieve_rows_total")
	x.mRetrieveSettled = x.reg.Counter("uei_retrieve_rows_settled_total")
	x.gStateBytes = x.reg.Gauge(obs.ScoreStateBytesGauge)
	// What the CPU answered, so a host whose terminal steps are slower can
	// be told from one whose strip kernels run the portable loops.
	x.reg.Gauge("uei_kernel_vector_width").SetInt(int64(kernel.VectorWidth()))
	x.hScore = x.reg.Histogram(obs.PhaseHistName(obs.PhaseScore), nil)
	x.hLoad = x.reg.Histogram(obs.PhaseHistName(obs.PhaseLoad), nil)
	x.hSwap = x.reg.Histogram(obs.PhaseHistName(obs.PhaseSwap), nil)
}

// startPrefetcher creates the background region loader over loadCell and
// derives θ for the rows the index reads.
func (x *Index) startPrefetcher() error {
	if err := x.deriveTheta(); err != nil {
		return err
	}
	pf, err := prefetch.New(x.loadCell)
	if err != nil {
		return err
	}
	pf.Instrument(x.reg)
	x.pf = pf
	return nil
}

// deriveTheta sets θ from the store (row count, dimensions, segments per
// dimension), the limiter's rate and σ — inputs every layout of the same
// rows shares. It runs again whenever the row count can change.
func (x *Index) deriveTheta() error {
	m := x.coord.Meta()
	theta, err := prefetch.Theta(m.RowCount, m.Dims(), x.opts.SegmentsPerDim, x.opts.Limiter.BytesPerSecond(), x.opts.LatencyThreshold)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	x.theta = theta
	return nil
}

// Registry returns the index's metrics registry (the one passed in
// Options.Registry, or the private one Open created).
func (x *Index) Registry() *obs.Registry { return x.reg }

// Close cancels and joins every background goroutine the index owns —
// the prefetcher (canceling any in-flight load) and, on a live layout,
// the stream store's flusher and compactor — then shuts down the worker
// pool, releases the pinned snapshot and closes the data files the
// index's stores hold open (a live layout's stores are the stream
// store's, closed with it). It is idempotent and safe to call while a
// prefetch load or background flush is running; subsequent index
// operations return ErrClosed. The sample pool is freed. On a view
// (NewView) only the view's private state stops: the shared pools, stores,
// and live write path stay up for the parent and its other views (a view
// still releases its own snapshot pin).
func (x *Index) Close() {
	x.closeOnce.Do(func() {
		x.closed.Store(true)
		if x.pf != nil {
			x.pf.Close()
		}
		if x.live != nil {
			x.snap.Release()
			if !x.isView {
				x.live.Close()
			}
		}
		if !x.isView {
			x.samples.close()
			x.pool.Close()
			if x.live == nil {
				x.coord.Close()
			}
		}
		x.ptab.Release()
		x.accountState()
	})
}

// accountState moves the index's share of the score-state gauge to what
// ptab holds now.
func (x *Index) accountState() {
	b := x.ptab.Bytes()
	x.gStateBytes.Add(float64(b - x.stateBytes))
	x.stateBytes = b
}

// Grid returns the symbolic-point lattice.
func (x *Index) Grid() *grid.Grid { return x.grid }

// ShardCoordinator returns the data plane.
// It is the seam for fault injection and shard inspection.
func (x *Index) ShardCoordinator() *shard.Coordinator { return x.coord }

// Sharded reports whether the index runs over more than one shard.
func (x *Index) Sharded() bool { return x.NumShards() > 1 }

// NumShards returns S.
func (x *Index) NumShards() int { return x.coord.NumShards() }

// BlockCache returns the shared decoded-chunk cache installed via
// Options.BlockCacheBytes, or nil when caching is disabled. Views share
// the parent's cache; one cache backs every shard and segment.
func (x *Index) BlockCache() *chunkstore.BlockCache { return x.coord.BlockCache() }

// RowCount returns the number of tuples visible to this index: the store
// row count for static layouts (all shards), the pinned snapshot's
// flushed row count for live ones.
func (x *Index) RowCount() int { return x.coord.Meta().RowCount }

// Dims returns the dimensionality.
func (x *Index) Dims() int { return x.coord.Meta().Dims() }

// Columns returns the attribute names in dimension order (read-only).
func (x *Index) Columns() []string { return x.coord.Meta().Columns }

// Bounds returns the per-dimension value bounds recorded at build time
// (for live layouts, pinned at creation).
func (x *Index) Bounds() vec.Box { return x.coord.Meta().Bounds }

// TotalBytes returns the on-disk payload size of all chunks (all shards,
// or all segments of the pinned snapshot).
func (x *Index) TotalBytes() int64 { return x.coord.Meta().TotalBytes }

// IOStats returns cumulative bytes and chunks read (summed across
// shards and snapshot segments).
func (x *Index) IOStats() (bytes int64, chunks int64) { return x.coord.IOStats() }

// ResetIOStats zeroes the I/O counters (between experiment phases).
func (x *Index) ResetIOStats() { x.coord.ResetIOStats() }

// FetchRows reconstructs the tuples with the given (global) row ids,
// routing to the owning shards. Results are sorted by id with duplicates
// collapsed.
func (x *Index) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	return x.coord.FetchRows(ctx, ids)
}

// LastStepDegraded reports whether the most recent EnsureRegion fell back
// from the winning cell because its owning shard did not answer the load.
func (x *Index) LastStepDegraded() bool { return x.stepDegraded }

// Budget returns the memory ledger.
func (x *Index) Budget() *memcache.Budget { return x.budget }

// NumIndexPoints returns |P|.
func (x *Index) NumIndexPoints() int { return x.blk.N }

// sampleSize resolves γ.
func (x *Index) sampleSize() int {
	if x.opts.SampleSize > 0 {
		return x.opts.SampleSize
	}
	perTuple := memcache.TupleBytes(x.Dims())
	gamma := int(x.opts.MemoryBudgetBytes / (2 * perTuple))
	if gamma < 1 {
		gamma = 1
	}
	return gamma
}

// InitExploration fills the unlabeled cache U with the uniform sample γ
// (Algorithm 2 line 12), drawn from the index's sample pool: γ of the rows
// the pool's threshold admits, chosen by Options.Seed, copied into U. Only
// the first draw of an index — and one that needs a larger threshold or
// rows the pool has not seen — reads the store; every other draw costs
// O(γ) and reads no chunk. A draw whose threshold admits more rows than
// the pool may hold reads only its γ rows. U depends only on the rows this
// index reads, γ and the seed. A γ the memory budget cannot hold fails
// with memcache.ErrBudgetExceeded before anything is read. It is intended
// to run once per exploration session.
func (x *Index) InitExploration(ctx context.Context) error {
	if x.closed.Load() {
		return ErrClosed
	}
	gamma := x.sampleSize()
	// U's bytes are reserved before the draw reads anything, so a γ the
	// budget cannot hold fails without a read; AddSamples reserves them
	// again for the rows it installs.
	need := int64(min(gamma, x.RowCount())) * memcache.TupleBytes(x.Dims())
	if err := x.budget.Reserve(need); err != nil {
		return fmt.Errorf("core: sampling U: %w", err)
	}
	ids, rows, err := x.samples.draw(ctx, x.coord, x.RowCount(), gamma, x.opts.Seed)
	x.budget.Release(need)
	if err != nil {
		return fmt.Errorf("core: sampling U: %w", err)
	}
	if err := x.cache.AddSamples(ids, rows); err != nil {
		return fmt.Errorf("core: caching the sample: %w", err)
	}
	return nil
}

// UpdateUncertainty re-scores the symbolic index points against the
// current model (Algorithm 2 line 17, P <- updateUncertainty(P, M)) by a
// resumable scan. The view keeps every point's k nearest labeled rows
// (learn.NeighborTable, keyed by cell id); a refit on an append-only
// labeled set costs one distance per point per new label, and only points
// whose neighbor list a new label entered are rescored. Anything else
// about the model changing rescans from row 0. A model other than
// *learn.DWKNN fails with ErrUnsupportedModel.
//
// No shard is contacted, whatever the layout, and the vector is published
// only when the pass is complete, so a cancelled pass changes nothing.
func (x *Index) UpdateUncertainty(ctx context.Context, model learn.Classifier) error {
	if x.closed.Load() {
		return ErrClosed
	}
	x.lastSkipped = 0
	dw, ok := model.(*learn.DWKNN)
	if !ok {
		return fmt.Errorf("core: scoring index points under %T: %w", model, ErrUnsupportedModel)
	}
	pass, err := x.scoreResumed(ctx, dw)
	if err != nil {
		return fmt.Errorf("core: scoring index points: %w", err)
	}
	x.lastSkipped = pass.Carried - pass.Changed
	x.mCellsScored.Add(int64(pass.Scanned + pass.Changed))
	x.mCellsSkipped.Add(int64(x.lastSkipped))
	x.scoresValid = true
	return nil
}

// scoreResumed is one serial pass over the centres through ptab,
// a strip of them at a time, checking ctx between strips. The table's
// storage is sized to |P| on the first pass and kept until Close.
func (x *Index) scoreResumed(ctx context.Context, dw *learn.DWKNN) (learn.NeighborPass, error) {
	// A pass cut short keeps no list: the next one starts over.
	pass, err := x.ptab.ScoreBlock(ctx, dw, x.blk)
	x.accountState()
	if err != nil {
		return learn.NeighborPass{}, err
	}
	x.ptab.Posteriors(x.uncertainty)
	for i, p := range x.uncertainty {
		if p > 0.5 {
			x.uncertainty[i] = 1 - p
		}
	}
	return pass, nil
}

// MostUncertainCells returns the top-k cells by symbolic-point uncertainty,
// descending, with cell id as the deterministic tie-breaker — a full sort's
// first k. k is clamped to |P|.
func (x *Index) MostUncertainCells(k int) ([]grid.CellID, error) {
	return x.mostUncertainCells(context.Background(), k)
}

// mostUncertainCells is MostUncertainCells under the step's context.
func (x *Index) mostUncertainCells(ctx context.Context, k int) ([]grid.CellID, error) {
	if !x.scoresValid {
		return nil, fmt.Errorf("core: UpdateUncertainty has not run for the current model: %w", learn.ErrNotFitted)
	}
	cells, _, err := x.coord.MostUncertain(ctx, x.uncertainty, k, nil)
	return cells, err
}

// CellUncertainty returns the last computed uncertainty of a cell.
func (x *Index) CellUncertainty(id grid.CellID) (float64, error) {
	if id < 0 || int(id) >= len(x.uncertainty) {
		return 0, fmt.Errorf("core: cell %d out of range [0,%d)", id, len(x.uncertainty))
	}
	return x.uncertainty[id], nil
}

// loadCell reconstructs one cell's tuples from its owning shard via the
// mapping method m and the chunk-store row-id merge, under global row ids.
// It is the prefetcher's LoadFunc and the synchronous load path; ctx
// aborts it at the next chunk boundary. A failing or slow owner surfaces
// shard.ErrShardUnavailable, which EnsureRegion degrades on instead of
// failing the step. On the prefetcher goroutine it reads x.coord, so
// whatever replaces x.coord cancels and joins the background load first
// (AdvanceSnapshot).
func (x *Index) loadCell(ctx context.Context, cell int) ([]uint32, [][]float64, error) {
	ids, vals, visited, err := x.coord.LoadCell(ctx, grid.CellID(cell))
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading cell %d: %w", cell, err)
	}
	// loadCell also runs on the prefetcher goroutine; the counter is
	// atomic, so this is safe concurrent with Stats().
	x.mEntries.Add(int64(visited))
	return ids, vals, nil
}

// EnsureRegion makes the most uncertain cell's subspace resident
// (Algorithm 2 lines 18-20), applying the §3.2 swap-deferral policy when
// prefetching is enabled. It returns the resident cell after the call.
//
// With prefetch on and a region resident, a newly selected cell's load
// starts in the background at its selection (cancelling a stale one), the
// resident region keeps serving for θ iterations from the first selection
// of a cell other than it, and the next one waits for the then selected
// cell's load and swaps: the swap lands exactly θ iterations after that
// first selection, however long the loads take. With nothing resident the
// load is synchronous.
//
// The call is split into two observed phases: "score" covers symbolic
// index re-scoring and top-k selection, "load" covers everything needed to
// make the target resident (cache check, synchronous load, prefetch
// start/defer/await) except the cache install itself, which installRegion
// reports as the "swap" phase.
func (x *Index) EnsureRegion(ctx context.Context, model learn.Classifier) (grid.CellID, error) {
	if x.closed.Load() {
		return 0, ErrClosed
	}
	x.stepDegraded = false
	sctx, score := obs.StartSpan(ctx, obs.PhaseScore)
	if !x.scoresValid {
		if err := x.UpdateUncertainty(sctx, model); err != nil {
			score.End(nil)
			return 0, err
		}
	}
	top, err := x.mostUncertainCells(sctx, 1)
	if err != nil {
		score.End(nil)
		return 0, err
	}
	x.hScore.ObserveDuration(score.End(map[string]float64{
		"points":  float64(x.blk.N),
		"cell":    float64(top[0]),
		"skipped": float64(x.lastSkipped),
	}))

	target := top[0]
	resident := x.cache.RegionCell()
	lctx, load := obs.StartSpan(ctx, obs.PhaseLoad)
	bytes0, chunks0 := x.IOStats()
	// endLoad closes the load phase with the I/O delta it caused. Under
	// prefetching the delta can include background reads — it attributes
	// I/O to the iteration it overlapped.
	endLoad := func(outcome string) {
		bytes1, chunks1 := x.IOStats()
		x.hLoad.ObserveDuration(load.End(map[string]float64{
			"cell":          float64(target),
			"bytes_read":    float64(bytes1 - bytes0),
			"chunks_read":   float64(chunks1 - chunks0),
			"cached":        boolAttr(outcome == "cached"),
			"prefetch_hit":  boolAttr(outcome == "prefetch_hit"),
			"deferred":      boolAttr(outcome == "deferred"),
			"blocking_load": boolAttr(outcome == "load"),
			"degraded":      boolAttr(outcome == "degraded"),
		}))
	}
	// failLoad resolves a failed load of the target cell. When the cell's
	// shard did not answer, the step degrades instead of failing:
	// fall back to the most uncertain cell some other shard owns (asking
	// the failed shard for its runner-up would only wait out a second
	// deadline), then to the resident region. Any other error, or nothing
	// to fall back to, propagates.
	failLoad := func(err error) (grid.CellID, error) {
		if errors.Is(err, shard.ErrShardUnavailable) {
			x.stepDegraded = true
			if alt, ok := x.bestCellOutsideOwner(lctx, target); ok {
				if ids, rows, lerr := x.loadCell(lctx, int(alt)); lerr == nil {
					target = alt
					endLoad("degraded")
					if err := x.installRegion(ctx, int(alt), ids, rows); err != nil {
						return 0, err
					}
					return alt, nil
				}
			}
			if resident != memcache.NoRegion {
				endLoad("degraded")
				return grid.CellID(resident), nil
			}
		}
		load.End(nil)
		return 0, err
	}
	if x.cache.HasRegion(int(target)) {
		x.dropPending()
		endLoad("cached")
		return target, nil
	}

	if x.pf == nil || resident == memcache.NoRegion {
		// Synchronous path: load and swap immediately.
		ids, rows, err := x.loadCell(lctx, int(target))
		if err != nil {
			return failLoad(err)
		}
		endLoad("load")
		if err := x.installRegion(ctx, int(target), ids, rows); err != nil {
			return 0, err
		}
		return target, nil
	}

	// Prefetching path: a newly selected cell's load starts now (cancelling
	// a stale one), and the resident region serves θ iterations from the
	// first selection since the last swap. A retarget keeps that count, so
	// a target that moves every few iterations still gets swapped in.
	if x.pendingCell != int(target) {
		if err := x.pf.Start(int(target)); err != nil {
			load.End(nil)
			return 0, err
		}
		x.pendingCell = int(target)
	}
	if x.deferredFor < x.theta {
		x.deferredFor++
		x.mDeferred.Inc()
		endLoad("deferred")
		return grid.CellID(resident), nil
	}
	r := x.pf.Await(lctx, int(target))
	if r.Err != nil {
		return failLoad(r.Err)
	}
	outcome := "load"
	if r.Ready {
		x.mPrefHits.Inc()
		outcome = "prefetch_hit"
	}
	endLoad(outcome)
	if err := x.installRegion(ctx, int(target), r.IDs, r.Rows); err != nil {
		return 0, err
	}
	return target, nil
}

// bestCellOutsideOwner returns the most uncertain cell not owned by cell's
// shard; ok is false when that shard owns every cell (S = 1).
func (x *Index) bestCellOutsideOwner(ctx context.Context, cell grid.CellID) (alt grid.CellID, ok bool) {
	owner, err := x.coord.OwnerOfCell(cell)
	if err != nil {
		return 0, false
	}
	best, _, err := x.coord.MostUncertain(ctx, x.uncertainty, 1, []int{owner})
	if err != nil || len(best) == 0 {
		return 0, false
	}
	return best[0], true
}

// boolAttr encodes a flag as a trace attribute.
func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// installRegion swaps a loaded region into the cache, tolerating budget
// truncation (a partial region still helps; the sample keeps global
// coverage). On a traced context the swap phase becomes a child span of
// the step, sibling to the load phase that produced the region.
func (x *Index) installRegion(ctx context.Context, cell int, ids []uint32, rows [][]float64) error {
	_, swap := obs.StartSpan(ctx, obs.PhaseSwap)
	err := x.cache.SetRegion(cell, ids, rows)
	if err != nil && !isBudgetErr(err) {
		swap.End(nil)
		return err
	}
	x.mSwaps.Inc()
	x.deferredFor = 0
	x.pendingCell = memcache.NoRegion
	x.hSwap.ObserveDuration(swap.End(map[string]float64{
		"cell": float64(cell),
		"rows": float64(len(ids)),
	}))
	return nil
}

// dropPending forgets the pending swap, cancelling its background load and
// waiting for it to exit, so a load only ever runs for pendingCell and a
// reselected cell's load starts again at its selection.
func (x *Index) dropPending() {
	if x.pf != nil {
		x.pf.Cancel()
	}
	x.pendingCell = memcache.NoRegion
	x.deferredFor = 0
}

func isBudgetErr(err error) bool {
	return errors.Is(err, memcache.ErrBudgetExceeded)
}

// Candidates visits the resident unlabeled tuples (uniform sample plus
// loaded region) in ascending id order.
func (x *Index) Candidates(fn func(id uint32, row []float64) bool) {
	x.cache.EachSorted(fn)
}

// CandidateCount returns the number of resident unlabeled tuples.
func (x *Index) CandidateCount() int { return x.cache.Len() }

// MarkLabeled evicts a tuple after the user labeled it (U <- U - {x}).
func (x *Index) MarkLabeled(id uint32) { x.cache.Remove(id) }

// InvalidateScores marks the symbolic-point uncertainties stale; the IDE
// engine calls it after retraining the model.
func (x *Index) InvalidateScores() { x.scoresValid = false }

// ResidentRegion returns the cell id of the loaded region, or
// memcache.NoRegion.
func (x *Index) ResidentRegion() int { return x.cache.RegionCell() }

// Stats returns a snapshot of activity counters. All sources are atomic
// instruments, so it is safe to call concurrently with an in-flight
// iteration (e.g. from a metrics endpoint).
func (x *Index) Stats() Stats {
	s := Stats{
		RegionSwaps:    int(x.mSwaps.Value()),
		SwapsDeferred:  int(x.mDeferred.Value()),
		PrefetchHits:   int(x.mPrefHits.Value()),
		EntriesVisited: int(x.mEntries.Value()),
	}
	s.BytesRead, s.ChunksRead = x.IOStats()
	s.PeakMemory = x.budget.Peak()
	s.ScoreStateBytes = int64(x.gStateBytes.Value())
	if bc := x.BlockCache(); bc != nil {
		cs := bc.Stats()
		s.CacheHits, s.CacheMisses = cs.Hits, cs.Misses
	}
	return s
}

// ResultRetrieval implements Algorithm 2 line 26 for the UEI scheme. It
// prunes the grid with the symbolic index points — cells whose center the
// model puts below minCellPosterior positive posterior cannot plausibly
// hold results — and reconstructs the survivors in a single streaming pass
// over the store: per dimension, only the chunks overlapping the union of
// the passing cells' segments are read, and each such chunk is read
// exactly once (unlike loading cells one by one, which re-reads shared
// chunk slabs per cell). The scan hands over columns, one kernel.Block per
// data part, and each part is classified as soon as it is scanned, so at
// most Workers parts are held at once (shard.Coordinator.RetrieveStream):
// the worker pool asks the model for a decision per row, not a posterior
// (learn.BlockPredictInto: the learn.Predict rule, bit for bit), and a row
// is kept when the answer is positive. The returned ids ascend.
// Setting minCellPosterior to 0 disables pruning and yields the exact answer
// set of the model; the centers are then not scored at all.
func (x *Index) ResultRetrieval(ctx context.Context, model learn.Classifier, minCellPosterior float64) ([]uint32, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	if !(minCellPosterior >= 0 && minCellPosterior < 0.5) {
		return nil, fmt.Errorf("core: minCellPosterior %g outside [0, 0.5)", minCellPosterior)
	}
	dims := x.grid.Dims()
	segs := x.grid.Segments()

	// Score every cell center in one sharded batch pass; the posteriors are
	// reused for the final trim below. No posterior is below a cutoff of 0
	// (NaN included), so post stays nil then and every cell passes.
	var post []float64
	if minCellPosterior > 0 {
		post = make([]float64, x.blk.N)
		err := x.pool.Do(ctx, x.blk.N, func(lo, hi int) error {
			return learn.BlockPosteriorsInto(ctx, model, x.blk, lo, hi, post[lo:hi])
		})
		if err != nil {
			return nil, err
		}
	}

	// Mark passing cells and the per-dimension segments they touch. pruned
	// records that some cell failed: only then can the scan return a row of
	// a failing cell, and only then does the trim below look cells up.
	// Without a cutoff every cell passes, so every segment is marked.
	// Otherwise the cells are walked in id order with their coordinates in
	// one buffer, the last dimension's turning fastest, as Grid.ID composes
	// them.
	anyPassing, pruned := false, false
	markedSeg := make([][]bool, dims)
	for d := 0; d < dims; d++ {
		markedSeg[d] = make([]bool, segs[d])
	}
	if post == nil {
		for _, marked := range markedSeg {
			for c := range marked {
				marked[c] = true
			}
		}
		anyPassing = x.grid.NumCells() > 0
	} else {
		coords := make([]int, dims)
		for _, p := range post {
			if p < minCellPosterior {
				pruned = true
			} else {
				anyPassing = true
				for d, c := range coords {
					markedSeg[d][c] = true
				}
			}
			for d := dims - 1; d >= 0; d-- {
				if coords[d]++; coords[d] < segs[d] {
					break
				}
				coords[d] = 0
			}
		}
	}
	if !anyPassing {
		return nil, nil
	}

	// Stream each dimension's relevant chunks once; a row materializes only
	// if a marked segment hits it on every dimension (a superset of the
	// passing-cell union, trimmed below). Every shard runs the same scan
	// concurrently (each shard is a self-contained store over its own rows)
	// and hands over one columnar part per data part, which is classified
	// before its scratch is scanned into again. Retrieval is the final
	// answer, so the scatter is strict: a failing shard fails the call
	// rather than silently dropping its rows. shard.ScanMarked is the one
	// scan every layout runs, so the row set is byte-identical across them.
	var (
		mu       sync.Mutex
		out      []uint32
		rows     int
		nSettled int64
	)
	entries, err := x.coord.RetrieveStream(ctx, markedSeg, func(part shard.RetrievedPart) error {
		kept, settled, err := x.classifyPart(ctx, model, part, post, minCellPosterior, pruned)
		if err != nil {
			return err
		}
		mu.Lock()
		out = append(out, kept...)
		rows += part.Blk.N
		nSettled += settled
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	x.mEntries.Add(int64(entries))
	x.mRetrieveRows.Add(int64(rows))
	x.mRetrieveSettled.Add(nSettled)
	// Ids ascend within a part and parts are disjoint; only the kept ids are
	// put in order, never the scanned rows.
	slices.Sort(out)
	return out, nil
}

// classifyPart is the final trim of one retrieved part, under its own
// classify span: the classifier's decision over the part's block on the
// worker pool, then — for the positives, when a cell failed (pruned) —
// exact passing-cell membership against the center posteriors post. It
// returns the ids kept, in a slice of its own (the part's memory is reused
// once the visit returns), and the rows decided without a selection.
func (x *Index) classifyPart(ctx context.Context, model learn.Classifier, part shard.RetrievedPart, post []float64, minCellPosterior float64, pruned bool) ([]uint32, int64, error) {
	cctx, span := obs.StartSpan(ctx, obs.SpanClassify)
	blk := part.Blk
	keep := make([]bool, blk.N)
	var settled atomic.Int64
	err := x.pool.Do(cctx, blk.N, func(lo, hi int) error {
		n, err := learn.BlockPredictInto(cctx, model, blk, lo, hi, keep[lo:hi])
		settled.Add(int64(n))
		return err
	})
	if err != nil {
		span.End(nil)
		return nil, 0, err
	}
	var out []uint32
	row := make([]float64, blk.Dims)
	for i, positive := range keep {
		if !positive {
			continue
		}
		if pruned {
			cell, err := x.grid.CellOf(blk.Row(i, row))
			if err != nil {
				span.End(nil)
				return nil, 0, err
			}
			if post[cell] < minCellPosterior {
				continue
			}
		}
		out = append(out, part.IDs[i])
	}
	span.End(map[string]float64{
		"rows":     float64(blk.N),
		"settled":  float64(settled.Load()),
		"selected": float64(int64(blk.N) - settled.Load()),
		"positive": float64(len(out)),
	})
	return out, settled.Load(), nil
}

// Uncertainties returns a copy of the symbolic-point uncertainty vector,
// aligned with cell ids; primarily for tests and diagnostics.
func (x *Index) Uncertainties() []float64 {
	out := make([]float64, len(x.uncertainty))
	copy(out, x.uncertainty)
	return out
}

// MaxUncertainty returns the current maximum symbolic-point uncertainty.
func (x *Index) MaxUncertainty() float64 {
	m := math.Inf(-1)
	for _, u := range x.uncertainty {
		if u > m {
			m = u
		}
	}
	return m
}
