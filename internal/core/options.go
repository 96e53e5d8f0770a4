// Package core implements the Uncertainty Estimation Index itself — the
// paper's contribution (§3). An Index owns the five UEI components: the
// symbolic index point set P (grid cell centers), the mapping method
// m : p -> chunks, the in-memory unlabeled cache U with its byte budget,
// the labeled set L (held by the IDE engine), and the chunk-store dataset D
// on secondary storage. It drives the per-iteration cycle of Algorithm 2:
// re-score P with the current model, pick the most uncertain symbolic
// point, and swap its subspace into memory (optionally hiding the load
// behind the σ/θ prefetch policy of §3.2).
package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/obs"
)

// DefaultLatencyThreshold is Table 1's 500 ms interactivity bound.
const DefaultLatencyThreshold = 500 * time.Millisecond

// Options configures an opened Index.
type Options struct {
	// SegmentsPerDim is the number of grid segments per dimension; the
	// symbolic index point count is SegmentsPerDim^dims (5 -> 3125 points
	// in 5-D, Table 1). Zero selects 5.
	SegmentsPerDim int
	// MemoryBudgetBytes caps the resident unlabeled data (uniform sample +
	// loaded region). The experiments set it to ~1% of the on-disk data.
	// Required.
	MemoryBudgetBytes int64
	// SampleSize is γ, the uniform-sample cardinality of Algorithm 2 line
	// 12. Zero derives it from the budget: half the budget's tuple
	// capacity, leaving the rest for the loaded region.
	SampleSize int
	// LatencyThreshold is σ (§3.2). Zero selects DefaultLatencyThreshold.
	LatencyThreshold time.Duration
	// EnablePrefetch turns on background region loading and swap deferral:
	// a swap lands θ = ⌈τ̂/σ⌉ iterations after its load starts, where τ̂ is
	// a cell load's time modelled from the row count and the Limiter's
	// rate (prefetch.Theta). It requires a Limiter — without one there is
	// no I/O cost to model.
	EnablePrefetch bool
	// ResidentRegions bounds how many uncertain regions stay cached at
	// once. §3.2 fixes the paper's default at 1; deployments with spare
	// budget can raise it to avoid re-loading recently visited cells.
	// Zero selects 1.
	ResidentRegions int
	// Seed drives the uniform sample.
	Seed int64
	// Registry receives the index's runtime metrics (swap/prefetch
	// counters, phase latency histograms, chunk-store I/O, memory gauges).
	// Nil creates a private registry, so Stats() keeps counting either
	// way; pass a shared registry to export the metrics.
	Registry *obs.Registry
	// Workers sizes the index's worker pool: result-retrieval
	// classification and a non-DWKNN model's full pass over the symbolic
	// points shard across it (a DWKNN pass resumes each point's k-NN scan
	// and is serial at any value), and cell reconstruction fans chunk reads
	// out up to this bound. Zero selects runtime.GOMAXPROCS(0); 1 forces
	// the fully serial hot path.
	Workers int
	// Limiter, when non-nil, meters chunk-store read bandwidth. (It was a
	// positional parameter of Open before the v2 API.)
	Limiter *iothrottle.Limiter
	// BlockCacheBytes, when positive, installs a shared decoded-chunk
	// block cache of that byte budget on the store: hot chunks are read
	// from disk and CRC-checked/decoded at most once no matter how many
	// session views want them, with single-flight deduplication of
	// concurrent misses. Zero disables the cache (the paper's strict
	// one-chunk-in-memory discipline). Views share the parent's cache.
	// In the sharded layout one cache backs every shard store, with
	// per-shard key prefixes.
	BlockCacheBytes int64
	// Shards selects the store layout Open requires: 0 auto-detects from
	// the directory, 1 requires the flat on-disk layout, and a value > 1
	// requires a sharded layout with exactly that many shards. A layout
	// (or shard-count) mismatch fails with chunkstore.ErrLayoutMismatch.
	Shards int
	// ShardDeadline bounds every per-shard operation of the index (a flat
	// store is one shard). When every replica of the winning cell's shard
	// misses it, the step falls back to another cell or the resident
	// region (it degrades instead of failing). Zero disables the deadline.
	ShardDeadline time.Duration
	// ShardEndpoints, when non-empty, serves the index through remote
	// uei-shardd workers instead of opening the store directory locally:
	// the fleet is handshaken, shards are placed on endpoints by
	// consistent hashing, and every per-shard operation goes over HTTP.
	// The directory argument of Open is ignored (may be empty). Results
	// are byte-identical to a local open of the same store.
	ShardEndpoints []string
	// Replication is the per-shard replica count across ShardEndpoints:
	// each shard is placed on this many distinct workers and operations
	// fail over between them (a shard degrades only when all replicas
	// fail); it must not exceed the endpoint count. Zero and 1 both mean
	// unreplicated; more needs ShardEndpoints.
	Replication int
	// HedgeDelay, when positive and Replication > 1, fires each per-shard
	// operation on a second replica if the first has not answered within
	// the delay; the first reply wins and the loser is cancelled. Zero
	// disables hedging; a positive delay needs ShardEndpoints.
	HedgeDelay time.Duration
	// LiveIngest requires the directory to hold the live (stream) layout:
	// Open fails with chunkstore.ErrLayoutMismatch otherwise. Live layouts
	// are auto-detected either way; the flag only pins the expectation,
	// the way Shards pins the shard count. Append/Flush work on any index
	// opened over a live layout.
	LiveIngest bool
	// FollowLive lets an exploration session advance its pinned snapshot
	// to the newest committed epoch at iteration boundaries (the IDE
	// provider calls AdvanceSnapshot before each selection). Off by
	// default: a session then explores exactly the epoch it opened,
	// byte-identical to a static index over the same rows, no matter how
	// many appends land meanwhile.
	FollowLive bool
	// FlushInterval additionally flushes the live memtable on a timer so
	// trickle appends become visible; zero flushes on size/demand only.
	FlushInterval time.Duration
}

// withDefaults validates and fills zero values.
func (o Options) withDefaults() (Options, error) {
	if o.SegmentsPerDim == 0 {
		o.SegmentsPerDim = 5
	}
	if o.SegmentsPerDim < 1 {
		return o, fmt.Errorf("core: segments per dim %d must be positive", o.SegmentsPerDim)
	}
	if o.MemoryBudgetBytes <= 0 {
		return o, fmt.Errorf("core: memory budget %d must be positive", o.MemoryBudgetBytes)
	}
	if o.SampleSize < 0 {
		return o, fmt.Errorf("core: negative sample size %d", o.SampleSize)
	}
	if o.LatencyThreshold == 0 {
		o.LatencyThreshold = DefaultLatencyThreshold
	}
	if o.LatencyThreshold < 0 {
		return o, fmt.Errorf("core: negative latency threshold %v", o.LatencyThreshold)
	}
	if o.EnablePrefetch && o.Limiter == nil {
		return o, fmt.Errorf("core: prefetch needs a Limiter: θ is derived from its I/O rate, and without one no load time can be modelled")
	}
	if o.ResidentRegions == 0 {
		o.ResidentRegions = 1
	}
	if o.ResidentRegions < 0 {
		return o, fmt.Errorf("core: resident regions %d must be positive", o.ResidentRegions)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("core: workers %d must not be negative", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BlockCacheBytes < 0 {
		return o, fmt.Errorf("core: block cache bytes %d must not be negative", o.BlockCacheBytes)
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("core: shard count %d must not be negative", o.Shards)
	}
	if o.ShardDeadline < 0 {
		return o, fmt.Errorf("core: negative shard deadline %v", o.ShardDeadline)
	}
	if o.Replication < 0 {
		return o, fmt.Errorf("core: replication %d must not be negative", o.Replication)
	}
	if o.HedgeDelay < 0 {
		return o, fmt.Errorf("core: negative hedge delay %v", o.HedgeDelay)
	}
	if len(o.ShardEndpoints) == 0 && (o.Replication > 1 || o.HedgeDelay > 0) {
		return o, fmt.Errorf("core: replication %d and hedge delay %v need remote workers (ShardEndpoints, uei-serve -shard-endpoints): an in-process store has one backend per shard", o.Replication, o.HedgeDelay)
	}
	if len(o.ShardEndpoints) > 0 && o.Replication > len(o.ShardEndpoints) {
		return o, fmt.Errorf("core: replication %d exceeds %d shard endpoints", o.Replication, len(o.ShardEndpoints))
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o, nil
}

// Stats reports an Index's activity since Open, for experiment reports.
// It is a value snapshot read from atomic instruments, so taking it is
// safe while the exploration loop and prefetcher are running.
type Stats struct {
	// RegionSwaps counts distinct region loads installed into the cache.
	RegionSwaps int
	// SwapsDeferred counts iterations the resident region kept serving
	// while the selected cell's background load had its θ iterations.
	SwapsDeferred int
	// PrefetchHits counts swaps whose background load had finished by the
	// time the swap asked for it (timing-dependent, unlike the swaps).
	PrefetchHits int
	// EntriesVisited sums the posting entries streamed during region
	// merges — the e of the O(k·e) bound.
	EntriesVisited int
	// BytesRead and ChunksRead mirror the chunk store's I/O counters.
	BytesRead  int64
	ChunksRead int64
	// PeakMemory is the budget ledger's high-water mark.
	PeakMemory int64
	// CacheHits and CacheMisses mirror the shared block cache's lookup
	// counters (both zero when no cache is installed).
	CacheHits   int64
	CacheMisses int64
	// ScoreStateBytes is the memory held by incremental-scoring state —
	// the neighbour tables of every view and session on the index's
	// registry (the uei_score_state_bytes gauge). It is not charged to
	// MemoryBudgetBytes.
	ScoreStateBytes int64
}
