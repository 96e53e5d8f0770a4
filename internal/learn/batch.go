package learn

import (
	"context"
	"fmt"
	"sync"
)

// batchBlock is how many queries a batch scorer processes between context
// checks: small enough that cancellation lands within microseconds of CPU
// work, large enough that the check is free.
const batchBlock = 512

// BatchClassifier is implemented by classifiers with an optimized
// many-query posterior path. BatchPosterior must be read-only with respect
// to the model so disjoint shards can run concurrently; any scratch state
// must live on the call's stack (all classifiers in this package comply —
// after Fit they never mutate themselves).
type BatchClassifier interface {
	Classifier
	// BatchPosterior fills out[i] with P(y = ClassPositive | X[i]).
	// len(out) must equal len(X).
	BatchPosterior(X [][]float64, out []float64) error
}

// PosteriorsInto fills out[i] = P(positive|X[i]) serially, using the
// classifier's batch path when it has one and checking ctx between blocks.
// It is the single-shard building block of Posteriors.
func PosteriorsInto(ctx context.Context, c Classifier, X [][]float64, out []float64) error {
	if len(X) != len(out) {
		return fmt.Errorf("learn: %d queries but %d output slots", len(X), len(out))
	}
	bc, _ := c.(BatchClassifier)
	for lo := 0; lo < len(X); lo += batchBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + batchBlock
		if hi > len(X) {
			hi = len(X)
		}
		if bc != nil {
			if err := bc.BatchPosterior(X[lo:hi], out[lo:hi]); err != nil {
				return err
			}
			continue
		}
		for i := lo; i < hi; i++ {
			p, err := c.PosteriorPositive(X[i])
			if err != nil {
				return err
			}
			out[i] = p
		}
	}
	return nil
}

// UncertaintiesInto fills out[i] with the least-confidence uncertainty
// min(p, 1-p) of X[i], serially (see PosteriorsInto). The index scores its
// symbolic points through BlockUncertaintiesInto; this row form is the
// specification the parity tests hold that to, bit for bit.
func UncertaintiesInto(ctx context.Context, c Classifier, X [][]float64, out []float64) error {
	if err := PosteriorsInto(ctx, c, X, out); err != nil {
		return err
	}
	for i, p := range out {
		if p > 0.5 {
			out[i] = 1 - p
		}
	}
	return nil
}

// Posteriors fills out[i] = P(positive|X[i]) using up to workers goroutines
// over contiguous shards. Results are byte-identical to the serial path:
// each query's posterior is independent and lands in its own slot. Callers
// that already own a worker pool should shard themselves and call
// PosteriorsInto per shard instead.
func Posteriors(ctx context.Context, c Classifier, X [][]float64, out []float64, workers int) error {
	return parallelInto(ctx, X, out, workers, func(ctx context.Context, xs [][]float64, os []float64) error {
		return PosteriorsInto(ctx, c, xs, os)
	})
}

// parallelInto shards X/out across workers goroutines. The first error by
// shard order wins, matching what a serial loop would have returned.
func parallelInto(ctx context.Context, X [][]float64, out []float64, workers int, fn func(context.Context, [][]float64, []float64) error) error {
	if len(X) != len(out) {
		return fmt.Errorf("learn: %d queries but %d output slots", len(X), len(out))
	}
	n := len(X)
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(ctx, X, out)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo := s * n / workers
		hi := (s + 1) * n / workers
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(ctx, X[lo:hi], out[lo:hi])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
