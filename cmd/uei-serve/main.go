// Command uei-serve hosts concurrent interactive explorations over one
// shared UEI store as an HTTP/JSON service: each client session runs its
// own active-learning loop on a private view of the index, a global memory
// budget is arbitrated across sessions, and saturation surfaces as
// backpressure (429/503 + Retry-After) instead of failures.
//
// Usage:
//
//	uei-serve -store ./store -addr :8080
//	uei-serve -gen 100000 -addr :8080      # self-contained demo store
//
// Walkthrough (simulated user; see the README's Serving section for the
// interactive protocol):
//
//	curl -s -XPOST localhost:8080/v1/sessions \
//	  -d '{"max_labels":25,"oracle":{"selectivity":0.004}}'
//	curl -s -XPOST localhost:8080/v1/sessions/s000001/step
//	curl -s localhost:8080/v1/sessions/s000001/result
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		storeDir    = flag.String("store", "", "existing UEI store directory (from uei-ingest)")
		gen         = flag.Int("gen", 0, "generate a synthetic store of this many tuples first")
		seed        = flag.Int64("seed", 1, "seed for generation and default session sampling")
		addr        = flag.String("addr", ":8080", "listen address for the session API (and /metrics, /debug)")
		budget      = flag.Int64("budget", 64<<20, "global memory budget in bytes, partitioned across sessions")
		minBudget   = flag.Int64("min-session-budget", 256<<10, "smallest viable per-session budget share in bytes")
		maxSessions = flag.Int("max-sessions", 16, "cap on live (non-evicted) sessions")
		queueDepth  = flag.Int("queue-depth", 2, "per-session bound on queued+running steps")
		idle        = flag.Duration("idle-timeout", 5*time.Minute, "evict sessions idle this long (0 disables)")
		snapDir     = flag.String("snapshot-dir", "", "directory for evicted sessions' snapshots (default <store>/sessions)")
		workers     = flag.Int("workers", 0, "shared worker pool size (0 = GOMAXPROCS)")
		cacheBytes  = flag.Int64("block-cache-bytes", 0, "shared decoded-chunk block cache budget in bytes, carved from -budget and yielded back under session pressure (0 disables)")
		shards      = flag.Int("shards", 0, "store layout: 0 = whatever -store holds (one shard with -gen), 1 = one shard, >1 = require (with -gen, build) exactly that many shards")
		shardDl     = flag.Duration("shard-deadline", 0, "per-shard operation deadline; slow shards are skipped and steps report degraded (0 disables)")
		traceFile   = flag.String("trace", "", "write one span trace per create, step and result request to this JSONL file (analyze with uei-trace)")
		sloBudget   = flag.Duration("slo", 0, "per-step interactivity budget for SLO accounting (0 = the 500ms default)")
		live        = flag.Bool("live", false, "require the live (streaming) layout and enable POST /v1/append (with -gen, builds a live store)")
		followLive  = flag.Bool("follow-live", false, "sessions advance to newly flushed data at iteration boundaries (default: each session explores the epoch it opened)")
		flushEvery  = flag.Duration("flush-interval", 0, "live store: also flush the memtable on this period so trickle appends become visible (0 = size/demand only)")
	)
	flag.Parse()

	if *shards < 0 {
		return fmt.Errorf("-shards %d must not be negative", *shards)
	}
	if *shardDl < 0 {
		return fmt.Errorf("-shard-deadline %v must not be negative", *shardDl)
	}

	// SIGINT/SIGTERM starts the graceful drain: the listener stops
	// accepting, in-flight steps finish, and live sessions are evicted to
	// snapshots so a restarted server resumes them transparently.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := *storeDir
	if dir == "" {
		if *gen <= 0 {
			return fmt.Errorf("either -store or -gen is required")
		}
		tmp, err := os.MkdirTemp("", "uei-serve-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		fmt.Printf("generating %d synthetic tuples and building a store in %s...\n", *gen, tmp)
		ds, err := dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
		if err != nil {
			return err
		}
		if err := core.Build(tmp, ds, core.BuildOptions{TargetChunkBytes: 64 * 1024, Shards: *shards, LiveIngest: *live}); err != nil {
			return err
		}
		dir = tmp
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer f.Close()
		// The tracer flushes per event through this buffer, so concurrent
		// sessions' spans survive a crash while writes stay batched.
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		tracer = obs.NewTracer(bw)
	}

	reg := obs.NewRegistry()
	m, err := server.NewManager(ctx, server.Config{
		StoreDir:              dir,
		TotalBudgetBytes:      *budget,
		MinSessionBudgetBytes: *minBudget,
		MaxSessions:           *maxSessions,
		MaxQueuedSteps:        *queueDepth,
		IdleTimeout:           *idle,
		SnapshotDir:           *snapDir,
		Workers:               *workers,
		Seed:                  *seed,
		Registry:              reg,
		BlockCacheBytes:       *cacheBytes,
		Shards:                *shards,
		ShardDeadline:         *shardDl,
		Tracer:                tracer,
		SLOBudget:             *sloBudget,
		LiveIngest:            *live,
		FollowLive:            *followLive,
		FlushInterval:         *flushEvery,
	})
	if err != nil {
		return err
	}

	if m.Index().Sharded() {
		fmt.Printf("sharded store: %d shards (per-shard deadline %v)\n", m.Index().NumShards(), *shardDl)
	}
	fmt.Printf("serving %d tuples on http://%s/v1/sessions (budget %d bytes, %d session slots, distance kernels %d float64 wide)\n",
		m.Index().RowCount(), *addr, *budget, *maxSessions, kernel.VectorWidth())
	if m.Index().Live() != nil {
		mode := "sessions pin their opening epoch"
		if *followLive {
			mode = "sessions follow new epochs"
		}
		fmt.Printf("live ingest on http://%s/v1/append (epoch %d; %s)\n", *addr, m.Index().LiveEpoch(), mode)
	}
	fmt.Printf("metrics on http://%s/metrics (also /debug/vars, /debug/pprof); Ctrl-C drains\n", *addr)
	if tracer != nil {
		fmt.Printf("tracing steps to %s (SLO budget %v); analyze with uei-trace\n", *traceFile, m.SLO().Budget())
	}
	err = server.Serve(ctx, *addr, m)
	if ctx.Err() != nil && err == nil {
		fmt.Println("drained; all live sessions snapshotted.")
	}
	return err
}
