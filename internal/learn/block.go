package learn

import (
	"context"
	"fmt"
	"sync"

	"github.com/uei-db/uei/internal/kernel"
)

// batchBlock is how many block points BlockPosteriorsInto scores between
// context checks: small enough that cancellation lands within microseconds
// of CPU work, large enough that the check is free.
const batchBlock = 512

// BlockClassifier is implemented by classifiers with a columnar scoring
// path over a packed kernel.Block. BlockPosterior fills out[0:hi-lo] with
// P(positive | block point i) for i in [lo, hi). Implementations must be
// read-only with respect to the model (disjoint ranges run concurrently)
// and bit-identical to PosteriorPositive on the same point — the block
// layout may change memory order, never the per-point arithmetic. DWKNN
// implements it.
type BlockClassifier interface {
	Classifier
	BlockPosterior(blk *kernel.Block, lo, hi int, out []float64) error
}

// rowScratchPool backs the row-reconstruction fallback for classifiers
// without a block path.
var rowScratchPool = sync.Pool{New: func() any { return new([]float64) }}

// BlockPosteriorsInto fills out[0:hi-lo] with posteriors of block points
// [lo, hi), checking ctx between batchBlock-sized chunks. Classifiers
// without a block path fall back to row reconstruction (a pure copy), so
// results match PosteriorPositive bit for bit in every case.
func BlockPosteriorsInto(ctx context.Context, c Classifier, blk *kernel.Block, lo, hi int, out []float64) error {
	if hi-lo != len(out) {
		return fmt.Errorf("learn: %d block points but %d output slots", hi-lo, len(out))
	}
	bc, hasBlock := c.(BlockClassifier)
	var row []float64
	var rowPtr *[]float64
	if !hasBlock {
		rowPtr = rowScratchPool.Get().(*[]float64)
		if cap(*rowPtr) < blk.Dims {
			*rowPtr = make([]float64, blk.Dims)
		}
		row = (*rowPtr)[:blk.Dims]
		defer rowScratchPool.Put(rowPtr)
	}
	for base := lo; base < hi; base += batchBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := base + batchBlock
		if end > hi {
			end = hi
		}
		if hasBlock {
			if err := bc.BlockPosterior(blk, base, end, out[base-lo:end-lo]); err != nil {
				return err
			}
			continue
		}
		for i := base; i < end; i++ {
			p, err := c.PosteriorPositive(blk.Row(i, row))
			if err != nil {
				return err
			}
			out[i-lo] = p
		}
	}
	return nil
}

// BlockDecider is implemented by classifiers that can tell which side of
// the decision threshold a block point falls on for less than its posterior
// costs: BlockPositive fills out[0:hi-lo] with Predict's answer for block
// points [lo, hi), under BlockClassifier's contract, and reports how many
// it settled without computing a posterior. Only DWKNN implements it.
type BlockDecider interface {
	Classifier
	BlockPositive(blk *kernel.Block, lo, hi int, out []bool) (settled int, err error)
}

// postScratchPool holds one chunk of posteriors for BlockPredictInto's
// classifiers that only score. The array cannot live on the stack: it is
// handed to an interface method, so it escapes.
var postScratchPool = sync.Pool{New: func() any { return new([batchBlock]float64) }}

// BlockPredictInto fills out[0:hi-lo] with whether Predict puts block point
// lo+i in the positive class, checking ctx between batchBlock-sized chunks,
// and returns how many points a BlockDecider settled. Every other
// classifier scores a chunk through BlockPosteriorsInto and compares.
func BlockPredictInto(ctx context.Context, c Classifier, blk *kernel.Block, lo, hi int, out []bool) (settled int, err error) {
	if hi-lo != len(out) {
		return 0, fmt.Errorf("learn: %d block points but %d output slots", hi-lo, len(out))
	}
	bd, decides := c.(BlockDecider)
	var post *[batchBlock]float64
	if !decides {
		post = postScratchPool.Get().(*[batchBlock]float64)
		defer postScratchPool.Put(post)
	}
	for base := lo; base < hi; base += batchBlock {
		if err := ctx.Err(); err != nil {
			return settled, err
		}
		end := min(base+batchBlock, hi)
		chunk := out[base-lo : end-lo]
		if !decides {
			if err := BlockPosteriorsInto(ctx, c, blk, base, end, post[:end-base]); err != nil {
				return 0, err
			}
			for i := range chunk {
				chunk[i] = positive(post[i])
			}
			continue
		}
		n, err := bd.BlockPositive(blk, base, end, chunk)
		if settled += n; err != nil {
			return settled, err
		}
	}
	return settled, nil
}

// BlockUncertaintiesInto is BlockPosteriorsInto followed by the
// least-confidence transform min(p, 1-p) — Uncertainty's fold, per point.
func BlockUncertaintiesInto(ctx context.Context, c Classifier, blk *kernel.Block, lo, hi int, out []float64) error {
	if err := BlockPosteriorsInto(ctx, c, blk, lo, hi, out); err != nil {
		return err
	}
	for i, p := range out {
		if p > 0.5 {
			out[i] = 1 - p
		}
	}
	return nil
}
