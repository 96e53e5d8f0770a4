package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
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
// operation on every replica. A cell load's caller degrades on it (another
// cell, the resident region); fetches and retrieval need every shard and
// surface it. Match with errors.Is.
var ErrShardUnavailable = errors.New("shard unavailable")

// Operation names passed to the fault hook and used in error messages and
// span names.
const (
	OpLoad     = "load"
	OpFetch    = "fetch"
	OpRetrieve = "retrieve"
)

// FaultHook intercepts every shard attempt before it runs — the test seam
// for forcing timeouts and failures, per replica. Hooks must honor ctx:
// the per-attempt deadline, caller cancellation, and hedged-loser
// cancellation reach a stuck attempt only through it.
type FaultHook func(ctx context.Context, shard, replica int, op string) error

// Part is one immutable data part of a shard: a private flat chunk store
// (local ids 0..n-1), the mapping of global grid cells to that store's
// chunks, and the strictly ascending local→global idmap — so local id
// order and global id order agree within a part. A nil IDMap is the
// identity: the part's local ids are the global ids (a flat store opened
// as the only part of the only shard), so no table is held in memory.
type Part struct {
	Store   *chunkstore.Store
	Mapping *grid.Mapping
	IDMap   []uint32
}

// RowCount returns the part's row count.
func (p *Part) RowCount() int { return p.Store.RowCount() }

// globalID translates one of the part's local row ids to its global id.
func (p *Part) globalID(local uint32) uint32 {
	if p.IDMap == nil {
		return local
	}
	return p.IDMap[local]
}

// localIDs returns the local ids (positions in the idmap) of the global
// ids this part holds, by merging the two sorted sequences. globalIDs must
// be ascending; so is the result.
func (p *Part) localIDs(globalIDs []uint32) []uint32 {
	if p.IDMap == nil {
		n := uint32(p.RowCount())
		return globalIDs[:sort.Search(len(globalIDs), func(i int) bool { return globalIDs[i] >= n })]
	}
	var local []uint32
	li := 0
	for _, g := range globalIDs {
		for li < len(p.IDMap) && p.IDMap[li] < g {
			li++
		}
		if li == len(p.IDMap) {
			break
		}
		if p.IDMap[li] == g {
			local = append(local, uint32(li))
			li++
		}
	}
	return local
}

// Shard is one self-contained slice of the sharded store. Build-time
// layouts hold exactly one part per shard; live (stream) snapshots hold
// one part per flushed segment, and reads merge the parts by global id.
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

// OpenOptions configures Open.
type OpenOptions struct {
	// CoordinatorOptions carries the transport-agnostic part: the scoring
	// pool, the per-shard deadline and the hedge delay.
	CoordinatorOptions
	// Limiter, when non-nil, meters chunk reads of every shard store
	// (one shared limiter — the shards model one storage device).
	Limiter *iothrottle.Limiter
	// Workers bounds each shard store's internal read fan-out.
	Workers int
	// BlockCache, when non-nil, is shared across all shard stores; each
	// store is installed with a distinct cache key prefix so identical
	// chunk file names in different shards cannot collide.
	BlockCache *chunkstore.BlockCache
}

// CoordinatorOptions configures NewCoordinator (the transport-agnostic
// constructor; Open wraps it for the local on-disk layout).
type CoordinatorOptions struct {
	// Pool runs the scoring passes over the symbolic index points. The
	// coordinator borrows the caller's pool rather than owning threads;
	// nil scores inline on the calling goroutine.
	Pool *pool.Pool
	// Deadline bounds every per-shard attempt; a cell load whose owner's
	// replicas all miss it degrades the step. Zero disables the deadline.
	Deadline time.Duration
	// HedgeDelay, when positive and a shard has more than one replica,
	// launches the operation on a second replica after this delay if the
	// first has not answered; the first reply wins and the loser is
	// cancelled. Zero disables hedging (failover on error still applies).
	HedgeDelay time.Duration
}

// Coordinator owns the symbolic index — the packed cell centres, scored
// and ranked in-process on the caller's pool — and routes everything that
// needs rows to the shards holding them: a cell load to the cell's owner,
// fetches and retrieval to every shard. It speaks only the Backend
// interface, so shards may live in-process (Open) or behind remote workers
// (NewCoordinator with remote client backends); either way its results are
// exactly those of one store over the same dataset (S = 1 is how a flat
// store is read).
//
// Replication: each shard may have R backends. An operation runs on the
// primary first, fails over to the next replica on error, and — when a
// hedge delay is configured — races a second replica after the delay,
// taking the first reply and cancelling the loser. A shard degrades only
// when every replica fails (ErrReplicaExhausted joins the error chain).
//
// The coordinator is safe for concurrent use by multiple sessions once
// constructed; SetFaultHook may be called at any time. The per-shard
// attempt deadline and the hedge delay are fixed at construction.
type Coordinator struct {
	meta Meta
	// replicas[s] lists shard s's backends, primary first: one local
	// backend per shard in process, R distinct worker clients remotely.
	replicas [][]Backend
	// shards holds the in-process shards of a locally opened coordinator,
	// nil when the data plane is remote. Exposed for inspection and tests.
	shards []*Shard
	// ownerByCell[cell] is the owning shard of each grid cell.
	ownerByCell []int
	// pool runs the scoring passes; borrowed from the caller, never nil.
	pool  *pool.Pool
	cache *chunkstore.BlockCache

	deadline   time.Duration // per-shard attempt deadline; 0 = none
	hedgeDelay time.Duration // 0 = no hedging
	hook       atomic.Pointer[FaultHook]

	instruments
}

// instruments are the coordinator's counters, bound by Instrument and
// shared by the epochs of one store (NextEpoch). mDegraded counts cell
// loads no replica of the owner answered (shard_degraded_total); nil-safe.
// The cause-split counters attribute each to a deadline miss vs a shard
// error, and mSkip[i] counts those of shard i specifically. mHedged counts hedged second
// attempts, mFailover error-triggered replica failovers.
type instruments struct {
	mDegraded         *obs.Counter
	mDegradedDeadline *obs.Counter
	mDegradedError    *obs.Counter
	mSkip             []*obs.Counter
	mHedged           *obs.Counter
	mFailover         *obs.Counter
}

// Open loads a sharded store built by Build and serves it through
// in-process backends. A flat store directory fails with
// chunkstore.ErrLayoutMismatch (core opens one as a single shard through
// NewLocalCoordinator).
func Open(ctx context.Context, dir string, opts OpenOptions) (*Coordinator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	g, err := man.grid()
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, man.Shards)
	for s := 0; s < man.Shards; s++ {
		sdir := filepath.Join(dir, ShardDirName(s))
		st, err := chunkstore.Open(sdir, opts.Limiter)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if st.RowCount() != man.ShardRowCounts[s] {
			return nil, fmt.Errorf("shard %d: store has %d rows, manifest says %d", s, st.RowCount(), man.ShardRowCounts[s])
		}
		if st.Dims() != len(man.Columns) {
			return nil, fmt.Errorf("shard %d: store has %d dims, manifest says %d", s, st.Dims(), len(man.Columns))
		}
		st.SetWorkers(opts.Workers)
		if opts.BlockCache != nil {
			st.SetCacheKeyPrefix(fmt.Sprintf("s%03d/", s))
			st.SetBlockCache(opts.BlockCache)
		}
		mp, err := grid.BuildMapping(g, st)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		ids, err := LoadIDMap(sdir)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if len(ids) != st.RowCount() {
			return nil, fmt.Errorf("shard %d: idmap has %d entries, store has %d rows", s, len(ids), st.RowCount())
		}
		shards[s] = &Shard{ID: s, Parts: []Part{{Store: st, Mapping: mp, IDMap: ids}}}
	}
	return NewLocalCoordinator(man, shards, opts)
}

// NewLocalCoordinator assembles a coordinator over already-open in-process
// shards — the tail of Open, also the entry point for a flat store (one
// shard, one part, nil idmap) and for live (stream) snapshots, whose
// multi-part shards are opened and cached by the stream DB rather than
// loaded from a build-time directory. Shard IDs are (re)assigned here.
func NewLocalCoordinator(man *Manifest, shards []*Shard, opts OpenOptions) (*Coordinator, error) {
	if err := man.validate(); err != nil {
		return nil, err
	}
	if len(shards) != man.Shards {
		return nil, fmt.Errorf("shard: %d shards for a %d-shard manifest", len(shards), man.Shards)
	}
	g, err := man.grid()
	if err != nil {
		return nil, err
	}
	backends := make([][]Backend, man.Shards)
	for s, sh := range shards {
		sh.ID = s
		backends[s] = []Backend{NewLocalBackend(sh, g)}
	}
	c, err := newCoordinator(man, g, backends, opts.CoordinatorOptions)
	if err != nil {
		return nil, err
	}
	c.shards = shards
	c.cache = opts.BlockCache
	return c, nil
}

// NextEpoch returns a coordinator over another epoch of the local store c
// serves (a live snapshot advance): shards carry the new epoch's parts and
// man its row counts, while everything an epoch cannot change — grid, cell
// ownership, the packed symbolic points, pool, block cache, deadlines,
// instruments — is shared with c instead of rebuilt, so an advance costs
// O(S), not O(cells), in time and memory.
func (c *Coordinator) NextEpoch(man *Manifest, shards []*Shard) (*Coordinator, error) {
	if c.shards == nil || man.Shards != len(c.shards) || len(shards) != len(c.shards) {
		return nil, fmt.Errorf("shard: next epoch has %d shards (manifest: %d), the local coordinator %d", len(shards), man.Shards, len(c.shards))
	}
	next := &Coordinator{
		meta:        c.meta,
		shards:      shards,
		replicas:    make([][]Backend, len(shards)),
		ownerByCell: c.ownerByCell,
		pool:        c.pool,
		cache:       c.cache,
		deadline:    c.deadline,
		hedgeDelay:  c.hedgeDelay,
		instruments: c.instruments,
	}
	next.meta.RowCount, next.meta.TotalBytes = man.RowCount, 0
	for s, sh := range shards {
		sh.ID = s
		lb := NewLocalBackend(sh, c.meta.Grid)
		next.replicas[s] = []Backend{lb}
		next.meta.TotalBytes += lb.Stats().TotalBytes
	}
	return next, nil
}

// NewCoordinator assembles a coordinator over caller-provided backends —
// the remote-transport entry point. man must be the store's manifest
// (validated again here); replicas[s] lists shard s's backends, primary
// first, and must cover every shard.
func NewCoordinator(man *Manifest, replicas [][]Backend, opts CoordinatorOptions) (*Coordinator, error) {
	if man == nil {
		return nil, fmt.Errorf("shard: nil manifest")
	}
	g, err := man.grid()
	if err != nil {
		return nil, err
	}
	return newCoordinator(man, g, replicas, opts)
}

// newCoordinator finishes construction over the manifest's grid: cell
// ownership and the packed symbolic points are derived here, once.
func newCoordinator(man *Manifest, g *grid.Grid, replicas [][]Backend, opts CoordinatorOptions) (*Coordinator, error) {
	if err := man.validate(); err != nil {
		return nil, err
	}
	if len(replicas) != man.Shards {
		return nil, fmt.Errorf("shard: %d backend groups for %d shards", len(replicas), man.Shards)
	}
	if opts.Deadline < 0 || opts.HedgeDelay < 0 {
		return nil, fmt.Errorf("shard: negative deadline (%v) or hedge delay (%v)", opts.Deadline, opts.HedgeDelay)
	}
	owners, err := CellOwners(g, man.Shards)
	if err != nil {
		return nil, err
	}
	minRep := 0
	var totalBytes int64
	for s, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no backends", s)
		}
		if minRep == 0 || len(reps) < minRep {
			minRep = len(reps)
		}
		if slices.Contains(reps, nil) {
			return nil, fmt.Errorf("shard: shard %d has a nil backend", s)
		}
		// Every replica holds the shard's rows: count them once.
		totalBytes += reps[0].Stats().TotalBytes
	}
	if opts.Pool == nil {
		opts.Pool = pool.New(1) // one worker runs inline and owns no goroutine
	}
	c := &Coordinator{
		replicas:    replicas,
		ownerByCell: owners,
		pool:        opts.Pool,
		deadline:    opts.Deadline,
		hedgeDelay:  opts.HedgeDelay,
		meta: Meta{
			Grid:           g,
			Points:         kernel.Pack(g.Centers()),
			Shards:         man.Shards,
			Replication:    minRep,
			SegmentsPerDim: man.SegmentsPerDim,
			Columns:        man.Columns,
			RowCount:       man.RowCount,
			Bounds:         vec.NewBox(man.MinValues, man.MaxValues),
			TotalBytes:     totalBytes,
		},
	}
	return c, nil
}

// Meta returns the store's immutable identity in one value — grid, shard
// and replica counts, columns, bounds, row count, on-disk bytes.
func (c *Coordinator) Meta() Meta { return c.meta }

// NumShards returns S.
func (c *Coordinator) NumShards() int { return len(c.replicas) }

// Replication returns the minimum per-shard replica count.
func (c *Coordinator) Replication() int { return c.meta.Replication }

// Shards returns the in-process shard slice of a locally opened
// coordinator (read-only; exposed for inspection and tests), or nil when
// the data plane is remote.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// Backends returns shard s's backends, primary first (read-only).
func (c *Coordinator) Backends(s int) []Backend { return c.replicas[s] }

// BlockCache returns the shared decoded-chunk cache of a locally opened
// coordinator, or nil (remote coordinators cache on the worker side).
func (c *Coordinator) BlockCache() *chunkstore.BlockCache { return c.cache }

// IOStats sums cumulative bytes and chunks read across all backends: disk
// I/O for local shards, wire traffic for remote ones.
func (c *Coordinator) IOStats() (bytes int64, chunks int64) {
	for _, reps := range c.replicas {
		for _, b := range reps {
			s := b.Stats()
			bytes += s.BytesRead
			chunks += s.ChunksRead
		}
	}
	return bytes, chunks
}

// ResetIOStats zeroes every backend's I/O counters.
func (c *Coordinator) ResetIOStats() {
	for _, reps := range c.replicas {
		for _, b := range reps {
			b.ResetIOStats()
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
// hook. Test seam for degradation and hedging scenarios.
func (c *Coordinator) SetFaultHook(h FaultHook) {
	if h == nil {
		c.hook.Store(nil)
		return
	}
	c.hook.Store(&h)
}

// Instrument registers shard metrics — shard_degraded_total, its
// cause-split family shard_degraded_cause_total{cause=...}, the per-shard
// shard_skip_total{shard=i} set, hedging counters (shard_hedged_total,
// shard_failover_total), the uei_shards and uei_shard_replicas gauges —
// and, for a locally opened coordinator, each shard store's I/O
// instruments (shared by name, so chunkstore counters aggregate across
// shards exactly like the flat layout).
func (c *Coordinator) Instrument(reg *obs.Registry) {
	c.mDegraded = reg.Counter("shard_degraded_total")
	c.mDegradedDeadline = reg.Counter(`shard_degraded_cause_total{cause="deadline"}`)
	c.mDegradedError = reg.Counter(`shard_degraded_cause_total{cause="error"}`)
	c.mHedged = reg.Counter("shard_hedged_total")
	c.mFailover = reg.Counter("shard_failover_total")
	c.mSkip = make([]*obs.Counter, len(c.replicas))
	for i := range c.replicas {
		c.mSkip[i] = reg.Counter(fmt.Sprintf("shard_skip_total{shard=\"%d\"}", i))
	}
	reg.Gauge("uei_shards").SetInt(int64(len(c.replicas)))
	reg.Gauge("uei_shard_replicas").SetInt(int64(c.meta.Replication))
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

// runAttempt applies the per-attempt deadline and fault hook around one
// backend call. On a traced context it wraps the call in a "shard_<op>"
// span annotated with the shard id, the replica, the deadline, and the
// outcome (ok / timeout / error / cancelled) — the per-shard fan-out
// level of a step trace, one span per replica attempt.
func runAttempt[T any](c *Coordinator, ctx context.Context, shardID, replica int, op string, b Backend, fn func(ctx context.Context, b Backend) (T, error)) (T, error) {
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
		err = (*h)(sctx, shardID, replica, op)
	}
	if err == nil {
		v, err = fn(sctx, b)
	}
	if span != nil {
		span.SetOutcome(shardOutcome(ctx, err))
		attrs := map[string]float64{"shard": float64(shardID), "replica": float64(replica)}
		if c.deadline > 0 {
			attrs["deadline_ms"] = float64(c.deadline) / float64(time.Millisecond)
		}
		span.End(attrs)
	}
	return v, err
}

// shardOutcome classifies a shard attempt result for span annotation.
// callerCtx is the context *outside* the per-attempt deadline: when it is
// cancelled the caller gave up (or a hedged sibling already won), which is
// not shard degradation.
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

// attemptResult carries one replica attempt's answer.
type attemptResult[T any] struct {
	v       T
	replica int
	err     error
}

// callShard runs one operation against shard shardID's replicas with
// failover and hedging: the primary goes first; an error fails over to
// the next replica immediately; with a hedge delay configured, a second
// replica is raced after the delay even without an error. The first
// success wins and the deferred cancel stops the losers — each attempt
// writes to a buffered channel, so losers terminate on their own (no
// goroutine leaks). The error return means every replica failed
// (ErrReplicaExhausted in the chain) or the caller's ctx ended.
func callShard[T any](c *Coordinator, ctx context.Context, shardID int, op string, fn func(ctx context.Context, b Backend) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	reps := c.replicas[shardID]
	attemptCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	results := make(chan attemptResult[T], len(reps))
	launched := 0
	launch := func() {
		replica := launched
		launched++
		b := reps[replica]
		go func() {
			v, err := runAttempt(c, attemptCtx, shardID, replica, op, b, fn)
			results <- attemptResult[T]{v, replica, err}
		}()
	}
	launch()
	var hedgeC <-chan time.Time
	if c.hedgeDelay > 0 && len(reps) > 1 {
		t := time.NewTimer(c.hedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var errs []error
	finished := 0
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launched < len(reps) {
				c.mHedged.Inc()
				launch()
			}
		case r := <-results:
			if r.err == nil {
				return r.v, nil
			}
			finished++
			if ctx.Err() != nil {
				// The caller gave up; attempt failures racing the
				// cancellation are not replica failures.
				return zero, ctx.Err()
			}
			errs = append(errs, fmt.Errorf("replica %d: %w", r.replica, r.err))
			if launched < len(reps) {
				// Fail over immediately: an error is a stronger signal
				// than the hedge timer.
				c.mFailover.Inc()
				launch()
			} else if finished == launched {
				return zero, errors.Join(ErrReplicaExhausted, errors.Join(errs...))
			}
		}
	}
}

// scatterGather fans fn out to every shard — one callShard per shard, so
// each fan-out leg gets replication, failover, and hedging — and applies
// the results in the single gather goroutine (apply needs no locking).
// Its callers need every shard's rows, so the first shard whose replicas
// all failed aborts the call with ErrShardUnavailable. Cancellation of ctx
// propagates to every in-flight attempt, and buffered channels at both
// levels guarantee goroutine termination even when scatterGather returns
// early.
func scatterGather[T any](c *Coordinator, ctx context.Context, op string, fn func(ctx context.Context, b Backend) (T, error), apply func(shardID int, v T)) error {
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
	results := make(chan shardAnswer, len(c.replicas))
	for id := range c.replicas {
		go func(id int) {
			v, err := callShard(c, scatterCtx, id, op, fn)
			results <- shardAnswer{id, v, err}
		}(id)
	}
	for range c.replicas {
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
		skipped = make([]bool, len(c.replicas))
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

// LoadCell reconstructs a cell's tuples from its owning shard (first
// healthy replica), with row ids remapped to global. Rows come back
// sorted by global id (local and global order agree within a shard). A
// shard whose replicas all fail yields an ErrShardUnavailable-wrapped
// error and counts toward shard_degraded_total; callers degrade
// (another shard's best cell, the resident region) rather than failing
// the step.
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
	r, err := callShard(c, ctx, owner, OpLoad, func(sctx context.Context, b Backend) (loaded, error) {
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
// matches the flat store's FetchRows contract: duplicates are collapsed,
// the result is sorted by (global) id, and out-of-range ids are an error.
// Sampling must see every shard, so this path is strict — a shard whose
// replicas are all unavailable fails the call.
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
	perShard := make([][]chunkstore.MergedRow, len(c.replicas))
	err := scatterGather(c, ctx, OpFetch,
		func(sctx context.Context, b Backend) ([]chunkstore.MergedRow, error) {
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
// sorted: parts hold disjoint rows, each ascending by global id, and the
// caller orders only the ids it keeps. Retrieval is the final answer, so
// the scatter is strict: a shard whose replicas are all unavailable fails
// the call rather than silently dropping its rows. entries sums the posting
// entries every shard visited.
func (c *Coordinator) Retrieve(ctx context.Context, marked [][]bool) (parts []RetrievedPart, entries int, err error) {
	type scanned struct {
		parts   []RetrievedPart
		entries int
	}
	perShard := make([][]RetrievedPart, len(c.replicas))
	err = scatterGather(c, ctx, OpRetrieve,
		func(sctx context.Context, b Backend) (scanned, error) {
			r, n, err := b.Retrieve(sctx, marked)
			return scanned{r, n}, err
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
