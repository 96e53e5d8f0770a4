// Skysurvey: the paper's headline out-of-core scenario in miniature.
//
// Both schemes explore the same synthetic sky survey under the same
// memory budget (~1% of the data) and the same shared I/O bandwidth
// budget, mirroring §4's "40 GB on disk, 400 MB of RAM" setup:
//
//   - REQUEST-over-UEI streams only the chunks of the currently most
//     uncertain grid cell each iteration, and
//   - REQUEST-over-DBMS re-scans the whole heap file through a small
//     buffer pool each iteration (the MySQL baseline's cost profile).
//
// The example prints a miniature Figure 6 row: per-iteration response
// times and the resulting speedup.
//
// Run with: go run ./examples/skysurvey
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

const (
	numTuples = 60_000
	maxLabels = 30
	// ioBandwidth models the scaled secondary-storage budget shared by
	// both schemes (see DESIGN.md §3 on why real page-cache speeds would
	// hide the out-of-core effect at example scale).
	ioBandwidth = 2 << 20 // 2 MiB/s
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: numTuples, Seed: 9})
	if err != nil {
		return err
	}
	region, err := oracle.FindRegion(ds, 0.004, 0.3, 11, 12)
	if err != nil {
		return err
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return err
	}
	scales := bounds.Widths()

	workDir, err := os.MkdirTemp("", "uei-skysurvey-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	fmt.Printf("building stores for %d tuples...\n", ds.Len())
	storeDir := filepath.Join(workDir, "uei")
	if err := core.Build(storeDir, ds, core.BuildOptions{TargetChunkBytes: 128 * 1024}); err != nil {
		return err
	}
	tableDir := filepath.Join(workDir, "dbms")
	table0, err := dbms.CreateTable(tableDir, ds, 64, nil)
	if err != nil {
		return err
	}
	heapBytes := table0.SizeBytes()
	table0.Close()

	budget := heapBytes / 100 // 1% of the data, as in the paper
	if budget < 32*dbms.PageSize {
		budget = 32 * dbms.PageSize
	}
	limiter := iothrottle.New(ioBandwidth)
	fmt.Printf("memory budget: %d bytes (1%% of %d); shared I/O budget: %d B/s\n\n",
		budget, heapBytes, int64(ioBandwidth))

	run := func(name string, provider ide.Provider) (*obs.Samples, float64, error) {
		user, err := oracle.New(ds, region)
		if err != nil {
			return nil, 0, err
		}
		lat := &obs.Samples{}
		sess, err := ide.NewSession(ide.Config{
			MaxLabels:        maxLabels,
			EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, scales) },
			Strategy:         al.LeastConfidence{},
			Seed:             3,
			SeedWithPositive: true,
			OnIteration: func(it ide.IterationInfo) {
				lat.Observe(it.ResponseTime)
			},
			AfterPrepare: func() { limiter.Reset() },
		}, provider, ide.OracleLabeler{O: user})
		if err != nil {
			return nil, 0, err
		}
		res, err := sess.Run(ctx)
		if err != nil {
			return nil, 0, err
		}
		// F1 of the retrieved set against ground truth.
		var conf metrics.Confusion
		got := make(map[uint32]bool, len(res.Positive))
		for _, id := range res.Positive {
			got[id] = true
		}
		ds.Scan(func(id dataset.RowID, _ []float64) bool {
			conf.Observe(got[uint32(id)], user.Relevant(id))
			return true
		})
		fmt.Printf("%-5s: n=%d mean=%v p50=%v p95=%v max=%v, retrieval F1 %.3f\n", name,
			lat.Count(), lat.Mean().Round(time.Microsecond),
			lat.Quantile(0.50).Round(time.Microsecond), lat.Quantile(0.95).Round(time.Microsecond),
			lat.Max().Round(time.Microsecond), conf.F1())
		return lat, conf.F1(), nil
	}

	idx, err := core.Open(ctx, storeDir, core.Options{
		MemoryBudgetBytes: budget,
		EnablePrefetch:    true,
		Seed:              3,
		Limiter:           limiter,
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	ueiProv, err := ide.NewUEIProvider(idx)
	if err != nil {
		return err
	}
	ueiProv.RetrievalCutoff = 0.05
	ueiLat, _, err := run("uei", ueiProv)
	if err != nil {
		return err
	}

	frames := int(budget / dbms.PageSize)
	table, err := dbms.OpenTable(tableDir, frames, limiter)
	if err != nil {
		return err
	}
	defer table.Close()
	dbmsProv, err := ide.NewDBMSProvider(table)
	if err != nil {
		return err
	}
	dbmsLat, _, err := run("dbms", dbmsProv)
	if err != nil {
		return err
	}

	speedup := float64(dbmsLat.Mean()) / float64(ueiLat.Mean())
	fmt.Printf("\nper-iteration speedup (dbms/uei): %.1fx\n", speedup)
	fmt.Printf("UEI iterations under 500ms: %.0f%%\n", ueiLat.FractionWithin(obs.DefaultSLOBudget)*100)
	return nil
}
