// Command uei-shardd serves the shards of one sharded UEI store over the
// HTTP/JSON shard protocol, as the data-plane worker behind a remote
// uei-serve (or any client of internal/shard/remote). Several workers can
// point at the same store directory (or byte-identical copies of it);
// the coordinator places shards — and their replicas — across the fleet
// by consistent hashing and fails over between workers, so killing one
// worker of a replicated fleet mid-session costs nothing but a failover.
//
// Usage:
//
//	uei-shardd -store ./store -addr :9101
//	uei-shardd -gen 100000 -gen-shards 4 -addr :9101   # demo store
//
// Quick check:
//
//	curl -s localhost:9101/healthz
//	curl -s localhost:9101/v1/meta | head -c 200
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-shardd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		storeDir   = flag.String("store", "", "sharded UEI store directory (from uei-ingest -shards or core.Build)")
		gen        = flag.Int("gen", 0, "generate a synthetic sharded store of this many tuples first")
		genShards  = flag.Int("gen-shards", 2, "shard count for -gen")
		seed       = flag.Int64("seed", 1, "seed for -gen")
		addr       = flag.String("addr", ":9101", "listen address for the shard protocol")
		workers    = flag.Int("workers", 0, "per-shard chunk-read fan-out bound (0 = GOMAXPROCS)")
		cacheBytes = flag.Int64("block-cache-bytes", 0, "shared decoded-chunk block cache budget in bytes across the served shards (0 disables)")
		quiet      = flag.Bool("quiet", false, "suppress the per-request access log")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := *storeDir
	if dir == "" {
		if *gen <= 0 {
			return fmt.Errorf("either -store or -gen is required")
		}
		if *genShards < 2 {
			return fmt.Errorf("-gen-shards %d must be at least 2 (workers serve the sharded layout)", *genShards)
		}
		tmp, err := os.MkdirTemp("", "uei-shardd-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		fmt.Printf("generating %d synthetic tuples into %d shards in %s...\n", *gen, *genShards, tmp)
		ds, err := dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
		if err != nil {
			return err
		}
		if err := core.Build(tmp, ds, core.BuildOptions{TargetChunkBytes: 64 * 1024, Shards: *genShards}); err != nil {
			return err
		}
		dir = tmp
	}

	idx, err := core.Open(ctx, dir, core.Options{
		// The worker never runs the exploration loop itself — sessions
		// live in uei-serve — so the budget is a placeholder ledger.
		MemoryBudgetBytes: 1 << 20,
		Workers:           *workers,
		BlockCacheBytes:   *cacheBytes,
		Registry:          obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	if !idx.Sharded() {
		return fmt.Errorf("%s holds a flat store; uei-shardd serves the sharded layout: %w", dir, shard.ErrShardUnavailable)
	}

	man, err := shard.LoadManifest(dir)
	if err != nil {
		return err
	}
	logf := log.New(os.Stdout, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	coord := idx.ShardCoordinator()
	srv := &http.Server{Addr: *addr, Handler: remote.NewServer(coord, man, logf)}

	meta := coord.Meta()
	fmt.Printf("serving %d shards (%d tuples, %d dims) on http://%s/v1/shards/...\n",
		meta.Shards, meta.RowCount, meta.Dims(), *addr)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: in-flight shard calls finish (the coordinator's
	// per-attempt deadline bounds them); new connections are refused.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("drained.")
	return nil
}
