package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
)

// Env is a prepared experiment environment: the synthetic dataset and both
// on-disk stores, built once and shared across runs and figures.
type Env struct {
	Cfg     Config
	DS      *dataset.Dataset
	Limiter *iothrottle.Limiter

	storeDir string
	tableDir string
	// budgetBytes is the resolved memory budget.
	budgetBytes int64
	// estimatorScales normalizes DWKNN distances by the data domain.
	estimatorScales []float64
}

// Setup generates the dataset (the SDSS substitute) and builds the UEI
// chunk store and the DBMS heap file. Build I/O is unthrottled —
// initialization is once per dataset in both schemes — and the limiter is
// reset afterwards so exploration starts with a full bucket.
func Setup(cfg Config) (*Env, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "uei-experiment-")
		if err != nil {
			return nil, fmt.Errorf("experiment: temp dir: %w", err)
		}
		workDir = dir
	}

	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: cfg.N, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	env := &Env{
		Cfg:      cfg,
		DS:       ds,
		storeDir: filepath.Join(workDir, "ueistore"),
		tableDir: filepath.Join(workDir, "dbms"),
	}
	if cfg.IOBandwidthBytesPerSec > 0 {
		env.Limiter = iothrottle.New(cfg.IOBandwidthBytesPerSec)
	}

	if err := core.Build(env.storeDir, ds, core.BuildOptions{
		TargetChunkBytes: cfg.TargetChunkBytes,
		Shards:           cfg.Shards,
		SegmentsPerDim:   cfg.SegmentsPerDim,
	}); err != nil {
		return nil, err
	}
	table, err := dbms.CreateTable(env.tableDir, ds, 64, nil)
	if err != nil {
		return nil, err
	}
	heapBytes := table.SizeBytes()
	if err := table.Close(); err != nil {
		return nil, err
	}

	env.budgetBytes = int64(float64(heapBytes) * cfg.MemoryBudgetFraction)
	if env.budgetBytes < 16*dbms.PageSize {
		env.budgetBytes = 16 * dbms.PageSize
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return nil, err
	}
	env.estimatorScales = bounds.Widths()
	env.Limiter.Reset()
	return env, nil
}

// BudgetBytes returns the resolved per-scheme memory budget.
func (e *Env) BudgetBytes() int64 { return e.budgetBytes }

// StoreDir returns the chunk-store directory.
func (e *Env) StoreDir() string { return e.storeDir }

// indexOptions maps the config onto the options every run's index opens
// with. The experiment harness measures the paper's serial per-iteration
// costs, so the worker pool stays at one unless the config raises it.
func (e *Env) indexOptions(runSeed int64) core.Options {
	workers := e.Cfg.Workers
	if workers == 0 {
		workers = 1
	}
	return core.Options{
		SegmentsPerDim:    e.Cfg.SegmentsPerDim,
		MemoryBudgetBytes: e.budgetBytes,
		LatencyThreshold:  e.Cfg.LatencyThreshold,
		EnablePrefetch:    e.Cfg.EnablePrefetch,
		Seed:              runSeed,
		Registry:          e.Cfg.Obs,
		Workers:           workers,
		Limiter:           e.Limiter,
		BlockCacheBytes:   e.Cfg.BlockCacheBytes,
		Shards:            e.Cfg.Shards,
	}
}

// OpenIndex opens a fresh UEI index handle for one run.
func (e *Env) OpenIndex(ctx context.Context, runSeed int64) (*core.Index, error) {
	return core.Open(ctx, e.storeDir, e.indexOptions(runSeed))
}

// OpenTable opens a fresh DBMS handle whose buffer pool consumes the same
// memory budget the UEI scheme gets.
func (e *Env) OpenTable() (*dbms.Table, error) {
	frames := int(e.budgetBytes / dbms.PageSize)
	if frames < 2 {
		frames = 2
	}
	return dbms.OpenTable(e.tableDir, frames, e.Limiter)
}

// EstimatorFactory builds the Table 1 uncertainty estimator: DWKNN with
// domain-scaled distances.
func (e *Env) EstimatorFactory() func() learn.Classifier {
	scales := e.estimatorScales
	return func() learn.Classifier { return learn.NewDWKNN(7, scales) }
}
