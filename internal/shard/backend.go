package shard

import (
	"context"
	"errors"
	"sync"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/vec"
)

// ErrReplicaExhausted marks a shard operation that failed on every replica.
// It always travels together with ErrShardUnavailable in the error chain,
// so existing degradation logic keeps working; match with errors.Is to
// distinguish "all copies down" from a single-copy miss.
var ErrReplicaExhausted = errors.New("all shard replicas failed")

// Backend is one transport-agnostic replica of one shard: the coordinator
// speaks only this interface, whether the shard's data lives in-process
// (LocalBackend) or behind a uei-shardd worker (remote.Client backends).
//
// All methods are pure request/response — they return fresh values and
// never mutate coordinator state — because the hedging layer may run the
// same call on two replicas concurrently and discard the loser. Results
// must be byte-identical across replicas of the same shard: every
// implementation derives cell ownership deterministically from the
// manifest's grid and the fnv1a-cell-coords hash, so "the shard's owned
// cells, ascending" means the same list on both sides of any transport.
type Backend interface {
	// ScoreAll evaluates the model's uncertainty on the symbolic index
	// points of the shard's owned cells per spec: all of them (spec.Dirty
	// nil) or an ascending subset of owned-cell-local indices (the
	// incremental dirty set). Scores come back aligned with the scored
	// list; see ScoreSpec/ScoreResult. An empty shard returns a zero
	// ScoreResult.
	ScoreAll(ctx context.Context, model learn.Classifier, spec ScoreSpec) (ScoreResult, error)
	// MostUncertain returns the shard's top-k owned cells by score, best
	// first, using the global comparator (higher score, then lower cell
	// id). scores is aligned with the owned-cell list, exactly as
	// ScoreAll returned it.
	MostUncertain(ctx context.Context, scores []float64, k int) ([]CellScore, error)
	// LoadCell reconstructs one owned cell's tuples. Returned ids are
	// global row ids, ascending; entries is the posting-entry count the
	// merge visited (the e of the O(k·e) bound).
	LoadCell(ctx context.Context, cell grid.CellID) (ids []uint32, vals [][]float64, entries int, err error)
	// FetchRows reconstructs the subset of the given global row ids that
	// this shard holds. ids must be sorted ascending and deduplicated;
	// results come back under global ids, ascending.
	FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error)
	// Retrieve streams the shard's chunks overlapping the marked segments
	// (one flag slice per dimension) and returns the rows hit on every
	// dimension as one columnar RetrievedPart per data part — global ids,
	// ascending within a part — the per-shard body of result retrieval.
	// entries counts the posting entries streamed.
	Retrieve(ctx context.Context, marked [][]bool) (parts []RetrievedPart, entries int, err error)
	// CostEstimate returns the bytes and posting entries loading the cell
	// would read from this shard.
	CostEstimate(ctx context.Context, cell grid.CellID) (bytes int64, entries int, err error)
	// Stats snapshots the backend's I/O counters without touching the
	// network or disk: a local backend reports its store's disk counters,
	// a remote backend reports client-side wire traffic.
	Stats() BackendStats
	// ResetIOStats zeroes the cumulative counters behind Stats.
	ResetIOStats()
}

// ScoreSpec selects which of a shard's owned symbolic points a ScoreAll
// pass evaluates.
type ScoreSpec struct {
	// Dirty, when non-nil, restricts scoring to these owned-cell-local
	// indices (positions in the shard's ascending owned-cell list), which
	// must themselves be ascending. Nil scores every owned cell. Non-nil
	// and empty is valid and scores nothing (the coordinator skips such
	// shards entirely).
	Dirty []int
	// NeedDK asks for each scored point's k-th-neighbor squared distance
	// (DWKNN only). It feeds the exact incremental rescorer's dirty-cell
	// rule.
	NeedDK bool
}

// ScoreResult is one shard's answer to ScoreAll: uncertainties aligned
// with the scored list (the owned-cell list, or spec.Dirty when set), plus
// the d_k² bounds when requested.
type ScoreResult struct {
	Scores []float64
	DK2    []float64
}

// ModelMarshaler is implemented by classifiers that carry their own
// serialized form. The coordinator wraps the model in a memoizing
// implementation before a scoring scatter, so a remote transport fanning
// one pass out to S shards (plus hedged duplicates) serializes the model
// exactly once.
type ModelMarshaler interface {
	MarshalModel() ([]byte, error)
}

// modelBlob memoizes learn.MarshalModel behind ModelMarshaler while
// delegating classification to the wrapped model (local backends score
// through it unchanged).
type modelBlob struct {
	learn.Classifier
	once sync.Once
	blob []byte
	err  error
}

func (m *modelBlob) MarshalModel() ([]byte, error) {
	m.once.Do(func() { m.blob, m.err = learn.MarshalModel(m.Classifier) })
	return m.blob, m.err
}

// UnwrapClassifier exposes the wrapped model so the learn package's block
// and incremental fast paths (AsBlockClassifier, AsDWKNN) see through the
// memoizer.
func (m *modelBlob) UnwrapClassifier() learn.Classifier { return m.Classifier }

// CellScore pairs a global grid cell with its uncertainty score in top-k
// merges across shards.
type CellScore struct {
	Cell  grid.CellID `json:"cell"`
	Score float64     `json:"score"`
}

// BackendStats is a point-in-time snapshot of one backend's I/O activity.
type BackendStats struct {
	// BytesRead and ChunksRead count cumulative reads: disk payload for a
	// local backend, HTTP response payload and request count for a remote
	// one.
	BytesRead  int64
	ChunksRead int64
	// TotalBytes is the static on-disk payload of the shard.
	TotalBytes int64
}

// Meta bundles the immutable identity of an opened sharded store — the
// facts the old Grid/Manifest/Bounds/Columns/Dims/RowCount/TotalBytes
// accessor sprawl exposed one by one. It is a value: copy freely.
type Meta struct {
	// Grid is the global symbolic-point lattice (identical to the flat
	// layout's grid over the same dataset).
	Grid *grid.Grid
	// Shards is S, the shard count.
	Shards int
	// Replication is the minimum replica count across shards (1 without
	// replication).
	Replication int
	// SegmentsPerDim is the per-dimension segment count the cell→shard
	// hash was computed over.
	SegmentsPerDim int
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
