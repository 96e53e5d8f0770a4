// Package kernel holds the columnar scoring primitives: a packed
// structure-of-arrays block of float64 points plus allocation-free batched
// float kernels over its columns. The package is a leaf — it knows nothing
// about classifiers, grids, or shards — so every layer of the scoring
// stack (learn models, the flat index, per-shard backends) can share one
// layout.
//
// Bit-parity contract: every kernel in this package performs exactly the
// float64 operations the corresponding scalar row loop performs, per
// element, in the same order — columnar layout changes which point the CPU
// visits next, never the expression tree evaluated for a given point. The
// learn package's parity tests assert this with math.Float64bits.
package kernel

import "fmt"

// blockAlign is the column stride alignment in float64 words. 8 words =
// 64 bytes = one cache line, so every column starts cache-line aligned
// relative to the backing array and unrolled strips never split a line.
const blockAlign = 8

// strideFor returns the column stride of an n-point block.
func strideFor(n int) int { return (n + blockAlign - 1) / blockAlign * blockAlign }

// Block is a columnar copy of n points in dims dimensions: column d
// occupies Data[d*Stride : d*Stride+N]. Whoever builds it (Pack, or NewBlock
// plus column writes and Keep) finishes before sharing it; from then on it
// is read-only, shared by every scoring goroutine. The blocks of symbolic
// points are packed once (at index open, view creation, or backend
// construction); under live ingest the grid geometry — and therefore the
// block — is epoch-invariant until the layout itself is rebuilt. The JSON
// form is the shard transport's encoding of a retrieved part.
type Block struct {
	// N is the number of points.
	N int `json:"n"`
	// Dims is the dimensionality.
	Dims int `json:"dims"`
	// Stride is the column stride in float64 words: N rounded up to a
	// multiple of blockAlign. The padding words at each column tail are
	// zero and never read.
	Stride int `json:"stride"`
	// Data is the flat backing array, len Dims*Stride.
	Data []float64 `json:"data"`
}

// NewBlock allocates a zeroed block of n points in dims dimensions for a
// builder that writes the columns itself, through Col.
func NewBlock(n, dims int) *Block {
	stride := strideFor(n)
	return &Block{N: n, Dims: dims, Stride: stride, Data: make([]float64, dims*stride)}
}

// Pack copies points (row layout, all rows of length dims) into a new
// columnar block. An empty point set yields a block with N == 0.
func Pack(points [][]float64) *Block {
	n := len(points)
	dims := 0
	if n > 0 {
		dims = len(points[0])
	}
	b := NewBlock(n, dims)
	for d := 0; d < dims; d++ {
		col := b.Col(d)
		for i, p := range points {
			col[i] = p[d]
		}
	}
	return b
}

// Col returns column d, length N.
func (b *Block) Col(d int) []float64 {
	return b.Data[d*b.Stride : d*b.Stride+b.N]
}

// Row reconstructs point i into out (len >= Dims) and returns out[:Dims].
// It is the row-order escape hatch for classifiers without a block path.
func (b *Block) Row(i int, out []float64) []float64 {
	out = out[:b.Dims]
	for d := range out {
		out[d] = b.Data[d*b.Stride+i]
	}
	return out
}

// Keep compacts the block in place to the points idx, which must be
// strictly ascending and below N: point idx[j] becomes point j, columns
// move down to the stride of the smaller N, and Data is resliced to it. No
// memory is allocated; the backing array keeps its capacity until the
// block is dropped.
func (b *Block) Keep(idx []uint32) {
	stride := strideFor(len(idx))
	for d := 0; d < b.Dims; d++ {
		src := b.Col(d)
		// dst never runs ahead of the reads: stride <= b.Stride and
		// j <= idx[j], so a word is overwritten only after it was moved.
		dst := b.Data[d*stride : (d+1)*stride]
		for j, i := range idx {
			dst[j] = src[i]
		}
		clear(dst[len(idx):])
	}
	b.N, b.Stride, b.Data = len(idx), stride, b.Data[:b.Dims*stride]
}

// Check reports whether the header fields and the backing array agree, so
// that Col and Row cannot index out of range. Blocks built in-process
// satisfy it by construction; one decoded from the wire is checked before
// use.
func (b *Block) Check() error {
	// Divide rather than multiply: Dims*Stride of hostile fields can wrap.
	ok := b.N >= 0 && b.N <= b.Stride
	if b.Dims > 0 {
		ok = ok && len(b.Data)%b.Dims == 0 && len(b.Data)/b.Dims == b.Stride
	} else {
		ok = ok && b.Dims == 0 && len(b.Data) == 0
	}
	if !ok {
		return fmt.Errorf("kernel: inconsistent block: n %d, dims %d, stride %d, %d data words", b.N, b.Dims, b.Stride, len(b.Data))
	}
	return nil
}
