// Package remote is the HTTP/JSON shard transport: a Client that
// implements shard.Backend against a uei-shardd worker, the worker-side
// Server, and Connect, which assembles a replicated shard.Coordinator
// over a worker fleet.
//
// The transport carries rows, never models: the symbolic index is scored
// and ranked in the coordinator's process, so a worker serves only what
// needs its shard's data. The protocol is deliberately plain — JSON bodies
// over HTTP/1.1, one POST per shard operation — and Go's encoding/json
// round-trips float64 exactly (shortest round-trip representation), which
// is what keeps remote results byte-identical to local ones.
//
// Endpoints served by a worker:
//
//	GET  /healthz                   liveness ("ok")
//	GET  /v1/meta                   manifest + per-shard byte sizes
//	POST /v1/shards/{id}/load       cell -> ids, values, entries visited
//	POST /v1/shards/{id}/fetch      global ids -> owned row subset
//	POST /v1/shards/{id}/retrieve   marked segments -> per-part columns, entries
//
// Every request may carry an X-Uei-Trace-Id header; the worker echoes it
// on the response and stamps it into its access log, so a traced
// session's remote legs are correlatable across processes.
package remote

import (
	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/shard"
)

// TraceHeader carries the step trace id across the wire so uei-trace can
// line worker-side activity up with the session's shard_<op> spans.
const TraceHeader = "X-Uei-Trace-Id"

// MetaResponse is GET /v1/meta: the store identity every endpoint of a
// fleet must agree on, plus per-shard payload sizes for Meta.TotalBytes.
type MetaResponse struct {
	Manifest   *shard.Manifest `json:"manifest"`
	ShardBytes []int64         `json:"shard_bytes"`
}

// LoadRequest names the cell to reconstruct.
type LoadRequest struct {
	Cell grid.CellID `json:"cell"`
}

// LoadResponse returns the cell's tuples under global row ids, ascending,
// plus the posting entries the merge visited.
type LoadResponse struct {
	IDs     []uint32    `json:"ids"`
	Vals    [][]float64 `json:"vals"`
	Entries int         `json:"entries"`
}

// FetchRequest carries sorted, deduplicated global row ids; the shard
// answers with the subset it holds.
type FetchRequest struct {
	IDs []uint32 `json:"ids"`
}

// FetchResponse returns the owned rows under global ids, ascending.
type FetchResponse struct {
	Rows []chunkstore.MergedRow `json:"rows"`
}

// RetrieveRequest carries the marked-segment flags, one slice per
// dimension.
type RetrieveRequest struct {
	Marked [][]bool `json:"marked"`
}

// RetrieveResponse returns the shard's fully reconstructed rows, one
// columnar part per data part (ascending global ids beside a kernel.Block
// with its stride padding), and the posting entries visited. The client
// checks every part's shape before handing it on.
type RetrieveResponse struct {
	Parts   []shard.RetrievedPart `json:"parts"`
	Entries int                   `json:"entries"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
