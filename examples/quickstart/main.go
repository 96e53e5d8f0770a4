// Quickstart: the minimal end-to-end UEI workflow.
//
//  1. Generate a synthetic SDSS-like dataset (the paper's workload shape).
//  2. Build the UEI index: columnar inverted chunks + grid of symbolic
//     index points (Algorithm 2, initialization phase).
//  3. Run an active-learning exploration with uncertainty sampling and a
//     DWKNN estimator against a simulated user (Algorithm 2, interactive
//     phase).
//  4. Print the model's accuracy, the index's I/O statistics, and the
//     end-of-run metrics snapshot collected by internal/obs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A 50k-tuple synthetic sky survey.
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 50_000, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d tuples, schema %s\n", ds.Len(), ds.Schema())

	// 2. Build the on-disk index once, then open it with a memory budget
	// of roughly 2%% of the data.
	dir, err := os.MkdirTemp("", "uei-quickstart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 64 * 1024}); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	ctx := context.Background()
	idx, err := core.Open(ctx, dir, core.Options{
		MemoryBudgetBytes: ds.SizeBytes() / 50,
		Seed:              42,
		Registry:          reg,
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	fmt.Printf("index: %d symbolic points over %d cells, %d bytes on disk\n",
		idx.NumIndexPoints(), idx.Grid().NumCells(), idx.TotalBytes())

	// 3. The "user" wants a region holding ~0.4% of the data.
	region, err := oracle.FindRegion(ds, 0.004, 0.3, 7, 12)
	if err != nil {
		return err
	}
	user, err := oracle.New(ds, region)
	if err != nil {
		return err
	}
	fmt.Printf("target region: %d relevant tuples (%.2f%%)\n",
		user.RelevantCount(), region.Selectivity(ds)*100)

	provider, err := ide.NewUEIProvider(idx)
	if err != nil {
		return err
	}
	provider.RetrievalCutoff = 0.05

	bounds, err := ds.Bounds()
	if err != nil {
		return err
	}
	scales := bounds.Widths()
	sess, err := ide.NewSession(ide.Config{
		MaxLabels:        80,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, scales) },
		Strategy:         al.LeastConfidence{},
		Seed:             42,
		SeedWithPositive: true,
		Registry:         reg,
	}, provider, ide.OracleLabeler{O: user})
	if err != nil {
		return err
	}
	res, err := sess.Run(ctx)
	if err != nil {
		return err
	}

	// 4. Score the retrieved set against the ground truth.
	var conf metrics.Confusion
	retrieved := make(map[uint32]bool, len(res.Positive))
	for _, id := range res.Positive {
		retrieved[id] = true
	}
	ds.Scan(func(id dataset.RowID, _ []float64) bool {
		conf.Observe(retrieved[uint32(id)], user.Relevant(id))
		return true
	})
	fmt.Printf("\nafter %d labels: retrieved %d tuples, F1 = %.3f (precision %.3f, recall %.3f)\n",
		res.LabelsUsed, len(res.Positive), conf.F1(), conf.Precision(), conf.Recall())
	ide.FMeasureGauge(reg).Set(conf.F1())

	st := idx.Stats()
	fmt.Printf("index activity: %d region swaps, %d bytes read, peak memory %d bytes (budget %d)\n",
		st.RegionSwaps, st.BytesRead, st.PeakMemory, idx.Budget().Capacity())

	// 5. End-of-run metrics: the phase-latency breakdown recorded by the
	// obs registry that core and ide instruments have been feeding.
	fmt.Printf("\n%s", obs.FormatSummary(reg))
	snap := reg.Snapshot()
	fmt.Printf("selected counters: chunk reads=%d (%d bytes), fmeasure=%.3f\n",
		snap.Counters["chunkstore_chunk_opens_total"],
		snap.Counters["chunkstore_read_bytes_total"],
		snap.Gauges["ide_fmeasure"])
	return nil
}
