// Package server is the multi-session exploration service: it hosts many
// concurrent active-learning sessions (the Algorithm 1 loop of internal/ide)
// over one shared Index, multiplexing the paper's single-user workload into
// the IDEBench-style many-users-one-dataset serving shape.
//
// The package owns four serving concerns the core engine deliberately does
// not have:
//
//   - Session lifecycle — create / step / result / delete, with per-session
//     state machines. Idle sessions are evicted to an ide.Snapshot on disk
//     and transparently resumed on their next request, so a session's
//     memory cost is only paid while it is actually exploring.
//   - Budget arbitration — one global memory budget (the paper's 400 MB
//     class constraint) is partitioned into equal shares across live
//     sessions by the Arbiter; shares are resized as sessions come and go,
//     and memcache.ErrBudgetExceeded becomes backpressure (503 +
//     Retry-After), never data loss.
//   - Admission control — a hard cap on live sessions, a bounded work queue
//     per session (429 when a client races itself), and a server-wide step
//     concurrency limit sized to the shared worker pool.
//   - Observability — step latency, queue depth, admission rejects, and
//     evictions on the same registry (and /metrics endpoint) the index and
//     engine already export to.
package server

import (
	"errors"
	"time"

	"github.com/uei-db/uei/internal/obs"
)

// Serving sentinels; the HTTP layer maps each to a distinct status code
// (see statusFor) and every error that crosses the package boundary wraps
// them, so errors.Is works for programmatic callers too.
var (
	// ErrSaturated is returned when the server cannot admit another live
	// session (session cap reached, or the budget arbiter cannot carve out
	// a viable share). Clients should back off and retry.
	ErrSaturated = errors.New("server: saturated; retry later")
	// ErrQueueFull is returned when a session's bounded work queue is full
	// — the client has more requests in flight than the queue admits.
	ErrQueueFull = errors.New("server: session queue full; retry later")
	// ErrUnknownSession is returned for operations on session ids that do
	// not exist (never created, or deleted).
	ErrUnknownSession = errors.New("server: unknown session")
	// ErrDraining is returned for new work arriving during graceful
	// shutdown.
	ErrDraining = errors.New("server: draining; not accepting new work")
)

// Config parameterizes a Manager.
type Config struct {
	// StoreDir is the chunk-store directory (from Build / uei-ingest).
	// Required unless the Manager is constructed over an existing Index.
	StoreDir string
	// TotalBudgetBytes is the global memory budget partitioned across live
	// sessions — the serving analogue of the paper's 400 MB constraint.
	// Required.
	TotalBudgetBytes int64
	// MinSessionBudgetBytes is the smallest share the arbiter will hand a
	// session; admission fails once equal shares would drop below it.
	// Zero selects 256 KiB.
	MinSessionBudgetBytes int64
	// BlockCacheBytes, when positive, installs a shared decoded-chunk
	// block cache on the index and registers it with the arbiter: the
	// cache's share is carved from TotalBudgetBytes ahead of the session
	// split, but shrinks (down to zero) whenever equal session shares
	// would otherwise fall below MinSessionBudgetBytes, so admission
	// capacity is unchanged. Zero disables the cache. Must leave room for
	// at least one minimum session share.
	BlockCacheBytes int64
	// MaxSessions caps live (non-evicted) sessions. Zero selects 16.
	MaxSessions int
	// MaxQueuedSteps bounds each session's work queue (queued + running).
	// Zero selects 2.
	MaxQueuedSteps int
	// IdleTimeout evicts sessions idle this long to a snapshot on disk.
	// Zero disables the janitor (sessions are still evicted on drain).
	IdleTimeout time.Duration
	// SnapshotDir holds evicted sessions' labeled sets. Zero value selects
	// a directory inside StoreDir.
	SnapshotDir string
	// Workers sizes the shared index worker pool, which only result
	// retrieval uses (core.Options.Workers). Zero selects GOMAXPROCS.
	Workers int
	// Shards is the shard count the manager requires of StoreDir: 0
	// accepts whatever the store holds, 1 requires one shard, > 1 exactly
	// that many shards (see core.Options.Shards).
	Shards int
	// ShardDeadline bounds every per-shard operation of the store (a
	// one-shard store included); shards that miss it are skipped and steps
	// report degraded=true instead of failing. Zero disables the deadline.
	ShardDeadline time.Duration
	// LiveIngest requires StoreDir to hold the live (stream) layout and
	// enables the ingest API (POST /v1/append). Live layouts are
	// auto-detected either way; the flag pins the expectation the way
	// Shards pins the shard count.
	LiveIngest bool
	// FollowLive lets hosted sessions advance their pinned snapshot to the
	// newest committed epoch at iteration boundaries. Off by default:
	// sessions then explore exactly the epoch the server opened, and
	// evicted sessions resume deterministically.
	FollowLive bool
	// FlushInterval flushes the live memtable on a timer so trickle
	// appends become visible without waiting for the size threshold.
	// Zero flushes on size/demand only. Ignored for static layouts.
	FlushInterval time.Duration
	// Seed drives store generation helpers and default session seeds.
	Seed int64
	// Registry receives the server's metrics; nil creates a private one.
	Registry *obs.Registry
	// Tracer, when set, emits one trace per step request: a "step" root
	// span (the trace id returned in the response and the X-Uei-Trace-Id
	// header) over a queue_wait span, iteration phases, per-shard fan-out
	// spans, and chunk/cache read spans — and one per session create
	// ("create" root) and per retrieving result request ("result" root).
	// Nil disables tracing.
	Tracer *obs.Tracer
	// SLOBudget is the per-step interactivity budget for the SLO
	// accountant (slo_violations_total, rolling step-latency
	// percentiles). Zero selects obs.DefaultSLOBudget (500 ms).
	SLOBudget time.Duration
}

// withDefaults validates and fills zero values.
func (c Config) withDefaults() (Config, error) {
	if c.TotalBudgetBytes <= 0 {
		return c, errors.New("server: TotalBudgetBytes must be positive")
	}
	if c.MinSessionBudgetBytes == 0 {
		c.MinSessionBudgetBytes = 256 << 10
	}
	if c.MinSessionBudgetBytes < 0 || c.MinSessionBudgetBytes > c.TotalBudgetBytes {
		return c, errors.New("server: MinSessionBudgetBytes must be in (0, TotalBudgetBytes]")
	}
	if c.BlockCacheBytes < 0 {
		return c, errors.New("server: BlockCacheBytes must not be negative")
	}
	if c.BlockCacheBytes > 0 && c.BlockCacheBytes > c.TotalBudgetBytes-c.MinSessionBudgetBytes {
		return c, errors.New("server: BlockCacheBytes must leave at least one minimum session share of TotalBudgetBytes")
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 16
	}
	if c.MaxSessions < 0 {
		return c, errors.New("server: MaxSessions must be positive")
	}
	if c.MaxQueuedSteps == 0 {
		c.MaxQueuedSteps = 2
	}
	if c.MaxQueuedSteps < 0 {
		return c, errors.New("server: MaxQueuedSteps must be positive")
	}
	if c.Shards < 0 {
		return c, errors.New("server: Shards must not be negative")
	}
	if c.ShardDeadline < 0 {
		return c, errors.New("server: ShardDeadline must not be negative")
	}
	if c.SLOBudget < 0 {
		return c, errors.New("server: SLOBudget must not be negative")
	}
	if c.FlushInterval < 0 {
		return c, errors.New("server: FlushInterval must not be negative")
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c, nil
}
