package experiment

import (
	"context"
	"fmt"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// Scheme names the two storage schemes under comparison.
type Scheme string

const (
	// SchemeUEI is REQUEST-over-UEI.
	SchemeUEI Scheme = "uei"
	// SchemeDBMS is REQUEST-over-the-DBMS-baseline (the paper's MySQL).
	SchemeDBMS Scheme = "dbms"
)

// SchemeResult aggregates one scheme's metrics across runs.
type SchemeResult struct {
	// Accuracy is the mean F-measure vs labeled-example curve.
	Accuracy *metrics.Series
	// Latency pools every iteration's response time across runs.
	Latency *obs.Samples
	// FinalF1 is the mean end-of-run accuracy.
	FinalF1 float64
	// BytesReadPerIteration is the mean exploration-phase I/O volume per
	// iteration (chunk bytes for UEI, heap-page reads for DBMS).
	BytesReadPerIteration float64
}

// ComparisonResult holds both schemes for one target-region class; it is
// the content of one accuracy figure plus that class's Figure 6 column.
type ComparisonResult struct {
	Class oracle.SizeClass
	UEI   SchemeResult
	DBMS  SchemeResult
}

// evaluator estimates the model's F-measure on a fixed uniform evaluation
// sample, the standard estimator for accuracy-vs-labels curves.
type evaluator struct {
	rows [][]float64
	rel  []bool
}

func newEvaluator(env *Env, orc *oracle.Oracle, seed int64) (*evaluator, error) {
	ids, err := memcache.SampleIDs(env.DS.Len(), env.Cfg.EvalSize, seed)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{
		rows: make([][]float64, len(ids)),
		rel:  make([]bool, len(ids)),
	}
	for i, id := range ids {
		ev.rows[i] = env.DS.Row(dataset.RowID(id))
		ev.rel[i] = orc.Relevant(dataset.RowID(id))
	}
	return ev, nil
}

// f1 computes the current model's F-measure on the evaluation sample.
func (ev *evaluator) f1(model learn.Classifier) (float64, error) {
	var conf metrics.Confusion
	for i, row := range ev.rows {
		cls, err := learn.Predict(model, row)
		if err != nil {
			return 0, err
		}
		conf.Observe(cls == learn.ClassPositive, ev.rel[i])
	}
	return conf.F1(), nil
}

// runOptions tweak a single exploration run; the zero value follows Config.
type runOptions struct {
	// maxLabels overrides Config.MaxLabels when positive.
	maxLabels int
	// sampleSize overrides the derived γ when positive (UEI only).
	sampleSize int
	// segmentsPerDim overrides Config.SegmentsPerDim when positive.
	segmentsPerDim int
	// prefetch overrides Config.EnablePrefetch when non-nil.
	prefetch *bool
	// residentRegions overrides the default single resident region when
	// positive (UEI only).
	residentRegions int
}

// runStats captures everything one exploration run produces.
type runStats struct {
	accuracy   *metrics.Series
	latency    *obs.Samples
	finalF1    float64
	iterations int
	bytesRead  int64
	// swaps / deferred are UEI-only.
	swaps    int
	deferred int
}

// runOne executes a single exploration run of one scheme.
func runOne(env *Env, region oracle.Region, scheme Scheme, runSeed int64, opt runOptions) (*runStats, error) {
	orc, err := oracle.New(env.DS, region)
	if err != nil {
		return nil, err
	}
	ev, err := newEvaluator(env, orc, runSeed+7919)
	if err != nil {
		return nil, err
	}

	var provider ide.Provider
	var ueiProvider *ide.UEIProvider
	switch scheme {
	case SchemeUEI:
		segments := env.Cfg.SegmentsPerDim
		if opt.segmentsPerDim > 0 {
			segments = opt.segmentsPerDim
		}
		prefetch := env.Cfg.EnablePrefetch
		if opt.prefetch != nil {
			prefetch = *opt.prefetch
		}
		idx, err := env.openIndexWith(runSeed, segments, opt.sampleSize, prefetch, opt.residentRegions)
		if err != nil {
			return nil, err
		}
		defer idx.Close()
		ueiProvider, err = ide.NewUEIProvider(idx)
		if err != nil {
			return nil, err
		}
		// Grid-pruned retrieval: skip cells whose symbolic point the model
		// puts below 5% positive posterior.
		ueiProvider.RetrievalCutoff = 0.05
		provider = ueiProvider
	case SchemeDBMS:
		table, err := env.OpenTable()
		if err != nil {
			return nil, err
		}
		defer table.Close()
		provider, err = ide.NewDBMSProvider(table)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiment: unknown scheme %q", scheme)
	}

	maxLabels := env.Cfg.MaxLabels
	if opt.maxLabels > 0 {
		maxLabels = opt.maxLabels
	}

	stats := &runStats{
		accuracy: &metrics.Series{Name: string(scheme)},
		latency:  &obs.Samples{},
	}
	var evalErr, hookErr error
	var startBytes, endBytes int64
	fGauge := ide.FMeasureGauge(env.Cfg.Obs)
	cfg := ide.Config{
		BatchSize:        env.Cfg.BatchSize,
		MaxLabels:        maxLabels,
		EstimatorFactory: env.EstimatorFactory(),
		Strategy:         al.LeastConfidence{},
		Seed:             runSeed,
		SeedWithPositive: true,
		Registry:         env.Cfg.Obs,
		OnIteration: func(it ide.IterationInfo) {
			stats.latency.Observe(it.ResponseTime)
			stats.iterations = it.Iteration
			if it.LabelsGiven%env.Cfg.EvalEvery == 0 {
				f1, err := ev.f1(it.Model)
				if err != nil {
					evalErr = err
					return
				}
				stats.accuracy.Append(float64(it.LabelsGiven), f1)
				fGauge.Set(f1)
			}
		},
		// Exploration-phase I/O is what Figure 6 depends on: exclude
		// initialization (sampling U, initial labels) and final result
		// retrieval by snapshotting at the loop boundaries.
		AfterPrepare: func() {
			env.Limiter.Reset()
			b, err := env.bytesRead(scheme, provider)
			if err != nil {
				hookErr = err
				return
			}
			startBytes = b
		},
		BeforeRetrieve: func() {
			b, err := env.bytesRead(scheme, provider)
			if err != nil {
				hookErr = err
				return
			}
			endBytes = b
		},
	}
	sess, err := ide.NewSession(cfg, provider, ide.OracleLabeler{O: orc})
	if err != nil {
		return nil, err
	}
	ctx, root := obs.StartSpan(obs.ContextWithTrace(context.Background(), env.Cfg.Trace.NewTrace()), "run")
	res, err := sess.Run(ctx)
	if err != nil {
		root.SetOutcome("error")
	}
	root.End(nil)
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	if hookErr != nil {
		return nil, hookErr
	}
	stats.bytesRead = endBytes - startBytes

	final, err := ev.f1(res.Model)
	if err != nil {
		return nil, err
	}
	stats.finalF1 = final
	stats.accuracy.Append(float64(res.LabelsUsed), final)
	if ueiProvider != nil {
		st := ueiProvider.Index().Stats()
		stats.swaps = st.RegionSwaps
		stats.deferred = st.SwapsDeferred
	}
	return stats, nil
}

// bytesRead reads a scheme's cumulative exploration I/O counter.
func (e *Env) bytesRead(scheme Scheme, provider ide.Provider) (int64, error) {
	switch scheme {
	case SchemeUEI:
		b, _ := provider.(*ide.UEIProvider).Index().IOStats()
		return b, nil
	case SchemeDBMS:
		_, misses, _ := provider.(*ide.DBMSProvider).Table().Pool().Stats()
		return misses * int64(8192), nil
	}
	return 0, fmt.Errorf("experiment: unknown scheme %q", scheme)
}

// openIndexWith opens an index with per-run overrides.
func (e *Env) openIndexWith(runSeed int64, segments, sampleSize int, prefetch bool, residentRegions int) (*core.Index, error) {
	opts := e.indexOptions(runSeed)
	opts.SegmentsPerDim = segments
	opts.SampleSize = sampleSize
	opts.EnablePrefetch = prefetch
	opts.ResidentRegions = residentRegions
	return core.Open(context.Background(), e.storeDir, opts)
}

// RunComparison runs both schemes for one region class, averaging across
// Config.Runs runs. It regenerates the content of Figure 3 (Small), 4
// (Medium), or 5 (Large), and contributes that class's Figure 6 column.
func RunComparison(env *Env, class oracle.SizeClass) (*ComparisonResult, error) {
	fraction, err := class.Fraction()
	if err != nil {
		return nil, err
	}
	out := &ComparisonResult{Class: class}
	var ueiRuns, dbmsRuns []*metrics.Series
	ueiLat, dbmsLat := &obs.Samples{}, &obs.Samples{}
	var ueiFinal, dbmsFinal, ueiBytes, dbmsBytes float64
	var ueiIters, dbmsIters int

	for r := 0; r < env.Cfg.Runs; r++ {
		runSeed := env.Cfg.Seed + int64(r)
		region, err := oracle.FindRegion(env.DS, fraction, env.Cfg.RegionTolerance, runSeed*1009+17, 16)
		if err != nil {
			return nil, fmt.Errorf("experiment: run %d (%s): %w", r, class, err)
		}
		for _, scheme := range []Scheme{SchemeUEI, SchemeDBMS} {
			st, err := runOne(env, region, scheme, runSeed, runOptions{})
			if err != nil {
				return nil, fmt.Errorf("experiment: run %d (%s/%s): %w", r, class, scheme, err)
			}
			switch scheme {
			case SchemeUEI:
				ueiRuns = append(ueiRuns, st.accuracy)
				ueiLat.Merge(st.latency)
				ueiFinal += st.finalF1
				ueiBytes += float64(st.bytesRead)
				ueiIters += st.iterations
			case SchemeDBMS:
				dbmsRuns = append(dbmsRuns, st.accuracy)
				dbmsLat.Merge(st.latency)
				dbmsFinal += st.finalF1
				dbmsBytes += float64(st.bytesRead)
				dbmsIters += st.iterations
			}
		}
	}
	runs := float64(env.Cfg.Runs)
	out.UEI = SchemeResult{
		Accuracy:              metrics.MeanSeries("UEI", ueiRuns),
		Latency:               ueiLat,
		FinalF1:               ueiFinal / runs,
		BytesReadPerIteration: safeDiv(ueiBytes, float64(ueiIters)),
	}
	out.DBMS = SchemeResult{
		Accuracy:              metrics.MeanSeries("DBMS", dbmsRuns),
		Latency:               dbmsLat,
		FinalF1:               dbmsFinal / runs,
		BytesReadPerIteration: safeDiv(dbmsBytes, float64(dbmsIters)),
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
