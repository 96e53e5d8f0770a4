// Tuning: UEI's §3.2 knobs in action.
//
// Part 1 shows the prefetch / latency-threshold mechanism: with a shared
// I/O budget, region swaps stall the iteration when prefetching is off;
// with it on, loads hide behind earlier iterations (θ = ⌈τ/σ⌉ lead time,
// τ modelled from the 1 MiB/s budget and the row count: θ = 2 here) and
// tail latency drops.
//
// Part 2 shows the symbolic-index-point trade-off: more grid cells mean
// smaller, cheaper region loads but more points to score per iteration.
//
// Run with: go run ./examples/tuning
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 80_000, Seed: 21})
	if err != nil {
		return err
	}
	region, err := oracle.FindRegion(ds, 0.004, 0.3, 19, 12)
	if err != nil {
		return err
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return err
	}
	scales := bounds.Widths()

	dir, err := os.MkdirTemp("", "uei-tuning-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 64 * 1024}); err != nil {
		return err
	}

	ctx := context.Background()
	session := func(opts core.Options, limiter *iothrottle.Limiter) (*obs.Samples, core.Stats, error) {
		opts.Limiter = limiter
		idx, err := core.Open(ctx, dir, opts)
		if err != nil {
			return nil, core.Stats{}, err
		}
		defer idx.Close()
		provider, err := ide.NewUEIProvider(idx)
		if err != nil {
			return nil, core.Stats{}, err
		}
		user, err := oracle.New(ds, region)
		if err != nil {
			return nil, core.Stats{}, err
		}
		lat := &obs.Samples{}
		sess, err := ide.NewSession(ide.Config{
			MaxLabels:        40,
			EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, scales) },
			Strategy:         al.LeastConfidence{},
			Seed:             31,
			SeedWithPositive: true,
			OnIteration:      func(it ide.IterationInfo) { lat.Observe(it.ResponseTime) },
			AfterPrepare:     func() { limiter.Reset() },
		}, provider, ide.OracleLabeler{O: user})
		if err != nil {
			return nil, core.Stats{}, err
		}
		if _, err := sess.Run(ctx); err != nil {
			return nil, core.Stats{}, err
		}
		return lat, idx.Stats(), nil
	}

	fmt.Println("Part 1: prefetching under a 1 MiB/s I/O budget (sigma = 500ms)")
	for _, prefetch := range []bool{false, true} {
		lat, st, err := session(core.Options{
			MemoryBudgetBytes: ds.SizeBytes() / 50,
			LatencyThreshold:  500 * time.Millisecond,
			EnablePrefetch:    prefetch,
			Seed:              31,
		}, iothrottle.New(1<<20))
		if err != nil {
			return err
		}
		fmt.Printf("  prefetch=%-5v  mean %-12s p95 %-12s swaps %d deferred %d prefetch-hits %d\n",
			prefetch, lat.Mean().Round(time.Microsecond), lat.Quantile(0.95).Round(time.Microsecond),
			st.RegionSwaps, st.SwapsDeferred, st.PrefetchHits)
	}

	fmt.Println("\nPart 2: symbolic index point budget (unthrottled)")
	for _, segments := range []int{3, 5, 7} {
		points := 1
		for i := 0; i < ds.Dims(); i++ {
			points *= segments
		}
		lat, st, err := session(core.Options{
			MemoryBudgetBytes: ds.SizeBytes() / 50,
			SegmentsPerDim:    segments,
			Seed:              31,
		}, nil)
		if err != nil {
			return err
		}
		fmt.Printf("  |P|=%-6d  mean %-12s bytes-read %-10d entries-visited %d\n",
			points, lat.Mean().Round(time.Microsecond), st.BytesRead, st.EntriesVisited)
	}
	return nil
}
