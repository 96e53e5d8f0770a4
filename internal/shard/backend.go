package shard

import (
	"context"
	"errors"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
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
// It holds exactly the operations that need the shard's rows; the symbolic
// index — cell centres, their scores, their ranking — is coordinator
// state and never crosses it.
//
// All methods are pure request/response — they return fresh values and
// never mutate coordinator state — because the hedging layer may run the
// same call on two replicas concurrently and discard the loser. Results
// must be byte-identical across replicas of the same shard.
type Backend interface {
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
	// Stats snapshots the backend's I/O counters without touching the
	// network or disk: a local backend reports its store's disk counters,
	// a remote backend reports client-side wire traffic.
	Stats() BackendStats
	// ResetIOStats zeroes the cumulative counters behind Stats.
	ResetIOStats()
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
	// Points is the symbolic index point set P — Grid's cell centres in
	// cell-id order, packed by column once per store and shared read-only
	// by every scoring pass, view and epoch.
	Points *kernel.Block
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
