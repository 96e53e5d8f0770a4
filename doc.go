// Package uei is the public API of the Uncertainty Estimation Index — a
// Go implementation of Ge & Chrysanthis, "On Supporting Scalable Active
// Learning-based Interactive Data Exploration with Uncertainty Estimation
// Index" (EDBT 2021).
//
// UEI lets active learning-based interactive data exploration run over
// datasets larger than main memory at interactive (sub-500 ms) iteration
// latency. The index partitions the data space into grid cells represented
// by symbolic index points; every iteration it re-scores only those points
// with the current classifier, loads only the most uncertain cell's tuples
// from a columnar inverted chunk store, and runs uncertainty sampling over
// a small resident set (a uniform sample plus that region).
//
// The package re-exports, as aliases, the library's stable surface from
// the internal packages:
//
//   - the index itself (Build / Open / Index),
//   - the exploration engine (NewSession / Session / providers / Labeler),
//   - query strategies (LeastConfidence, Margin, Entropy, Random, QBC,
//     ExpectedErrorReduction),
//   - classifiers (DWKNN, GaussianNB, Logistic, Committee),
//   - the data substrate (Dataset, GenerateSky, CSV I/O), and
//   - the evaluation oracle (Region, Oracle) for simulated users.
//
// A minimal end-to-end exploration (v2 API: context-first, every knob an
// Options field, worker pool sized to GOMAXPROCS by default):
//
//	ctx := context.Background()
//	ds, _ := uei.GenerateSky(uei.SkyConfig{N: 100_000, Seed: 1})
//	_ = uei.Build(ctx, "store", ds, uei.BuildOptions{})
//	idx, _ := uei.Open(ctx, "store", uei.Options{
//		MemoryBudgetBytes: ds.SizeBytes() / 100,
//		Workers:           8,
//	})
//	defer idx.Close()
//
//	provider, _ := uei.NewUEIProvider(idx)
//	sess, _ := uei.NewSession(uei.SessionConfig{
//		MaxLabels:        100,
//		EstimatorFactory: func() uei.Classifier { return uei.NewDWKNN(7, nil) },
//		Strategy:         uei.LeastConfidence{},
//	}, provider, myLabeler) // myLabeler implements uei.Labeler
//	res, _ := sess.Run(ctx) // cancel ctx to abort within one iteration
//
// Errors crossing this boundary wrap the exported sentinels (ErrClosed,
// ErrNotFitted, ErrBudgetExceeded, ErrNoCandidates), so errors.Is works
// without reaching into internal packages.
//
// See the examples/ directory for runnable programs and cmd/uei-bench for
// the harness that regenerates the paper's tables and figures.
package uei
