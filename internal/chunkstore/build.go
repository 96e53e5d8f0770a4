package chunkstore

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/dataset"
)

// BuildRows is the one writer of data files: every part — of a first
// epoch from any row source, a live flush or a compaction — is written by
// it through shard's Manifest.WriteSegment, and Build over a dataset calls
// it too (Algorithm 2 lines 2-6). One pass over the rows appends each
// value with its row id to its dimension's pair buffer; a buffer that
// reaches spillPairs is sorted and spilled to a run file. Then, dimension
// by dimension, a k-way merge of the runs and the sorted residual buffer
// streams the pairs in (value, id) order into entries, which chunkCutter
// cuts into chunks appended to the dimension's data file: equal-size
// within a grid segment, and never across a segment boundary when the
// caller names the grid (BuildRows' segments).
// Memory stays bounded by spillPairs pairs per dimension whatever the
// input size: the paper's dataset is 100x the available memory before it
// is ever indexed.

// spillThreshold is the number of (value, id) pairs one dimension buffers
// before it spills a sorted run: 16 MiB a dimension.
const spillThreshold = 1 << 20

// spillPairs is spillThreshold; tests lower it to exercise the spill and
// merge paths on small inputs.
var spillPairs = spillThreshold

// bufStart is the pairs a dimension's buffer starts with when the caller
// gives no size hint. A full buffer grows once, straight to spillPairs, so
// a build leaves no outgrown arrays behind.
const bufStart = 4096

// pairSize is the on-disk size of one spill pair (float64 value + uint32
// row id).
const pairSize = 12

// pair is one (value, rowID) posting element.
type pair struct {
	value float64
	id    uint32
}

// RowIterator yields rows in ascending id order; it returns ok=false at
// the end of the stream. The writer copies what it keeps, so a row may be
// reused by the next call. Implementations need not be resettable: the
// build makes exactly one pass.
type RowIterator func() (row []float64, ok bool, err error)

// Build creates a chunk store in dir (which must be empty or absent) from
// the dataset's rows, in id order.
func Build(dir string, ds *dataset.Dataset, opts BuildOptions) (*Store, error) {
	rows, _ := ds.Rows()
	return BuildRows(dir, ds.Schema().Names(), rows.Next, ds.Len(), nil, opts)
}

// BuildRows creates a chunk store in dir (which must be empty or absent)
// from a single pass over rows, each holding one value per column. A row
// with the wrong number of values or a non-finite value fails the build
// before any data file is written. sizeHint is the row count when the
// caller knows it (0 when not): the pair buffers start with room for that
// many rows, or bufStart, up to spillPairs. segments, when non-nil, is
// called once with the rows' per-dimension bounds, after the last row and
// before any data file is written; the SegmentFunc it returns (nil: none)
// places each value in a grid segment, and no chunk then holds values of
// two segments. Readers assume nothing of it.
func BuildRows(dir string, columns []string, rows RowIterator, sizeHint int, segments func(min, max []float64) SegmentFunc, opts BuildOptions) (*Store, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("chunkstore: a store needs at least one column")
	}
	if rows == nil {
		return nil, fmt.Errorf("chunkstore: nil row iterator")
	}
	target := opts.TargetChunkBytes
	if target == 0 {
		target = DefaultTargetChunkBytes
	}
	if target < 64 {
		return nil, fmt.Errorf("chunkstore: target chunk size %d below 64-byte minimum", target)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkstore: create %s: %w", dir, err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return nil, fmt.Errorf("chunkstore: inspect %s: %w", dir, err)
	} else if len(entries) > 0 {
		return nil, fmt.Errorf("chunkstore: directory %s is not empty", dir)
	}

	dims := len(columns)
	w := &writer{bufs: make([][]pair, dims), runs: make([][]string, dims)}
	for d := range w.bufs {
		start := sizeHint
		if start <= 0 {
			start = bufStart
		}
		w.bufs[d] = make([]pair, 0, min(start, spillPairs))
	}
	defer w.removeRuns()
	minVals := make([]float64, dims)
	maxVals := make([]float64, dims)
	rowCount := 0
	for {
		row, ok, err := rows()
		if err != nil {
			return nil, fmt.Errorf("chunkstore: reading row %d: %w", rowCount, err)
		}
		if !ok {
			break
		}
		if len(row) != dims {
			return nil, fmt.Errorf("chunkstore: row %d has %d values, want %d", rowCount, len(row), dims)
		}
		if rowCount > math.MaxUint32 {
			return nil, fmt.Errorf("chunkstore: row count exceeds uint32 id space")
		}
		for d, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("chunkstore: row %d column %q: non-finite value", rowCount, columns[d])
			}
			if rowCount == 0 || v < minVals[d] {
				minVals[d] = v
			}
			if rowCount == 0 || v > maxVals[d] {
				maxVals[d] = v
			}
			if err := w.add(d, pair{value: v, id: uint32(rowCount)}); err != nil {
				return nil, err
			}
		}
		rowCount++
	}
	if rowCount == 0 {
		return nil, fmt.Errorf("chunkstore: refusing to build a store without rows")
	}

	m := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Columns:          append([]string(nil), columns...),
		RowCount:         rowCount,
		TargetChunkBytes: target,
		Chunks:           make([][]ChunkMeta, dims),
		MinValues:        minVals,
		MaxValues:        maxVals,
	}
	var segment SegmentFunc
	if segments != nil {
		segment = segments(minVals, maxVals)
	}
	for d := 0; d < dims; d++ {
		metas, err := w.writeDataFile(dir, d, target, segment)
		if err != nil {
			return nil, err
		}
		w.bufs[d] = nil
		m.Chunks[d] = metas
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := saveManifest(dir, m); err != nil {
		return nil, err
	}
	return newStore(dir, m, opts.Limiter)
}

// writeDataFile writes dimension d's data file from the merge of its pairs,
// cut at segment's boundaries when it is non-nil.
func (w *writer) writeDataFile(dir string, d, target int, segment SegmentFunc) ([]ChunkMeta, error) {
	merged, cleanup, err := w.merged(d)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	f, err := os.Create(filepath.Join(dir, dataFileName(d)))
	if err != nil {
		return nil, fmt.Errorf("chunkstore: create data file: %w", err)
	}
	metas, err := writeChunksFromPairs(f, d, target, segment, merged)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("chunkstore: close data file: %w", cerr)
	}
	return metas, err
}

// writeChunksFromPairs groups a (value,id)-sorted pair stream into entries
// and cuts them into chunks appended to dst, at segment's boundaries when
// it is non-nil. The open entry's posting list lives in one buffer the
// cutter copies from, so no posting allocates.
func writeChunksFromPairs(dst io.Writer, dim, target int, segment SegmentFunc, next func() (pair, bool, error)) ([]ChunkMeta, error) {
	cut := chunkCutter{w: dst, dim: dim, target: target, segment: segment}
	var cur Entry // no current entry while cur.Rows is empty
	for {
		p, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(cur.Rows) != 0 && p.value != cur.Value {
			if p.value < cur.Value {
				return nil, fmt.Errorf("chunkstore: merge produced unsorted values (%g after %g)", p.value, cur.Value)
			}
			if err := cut.add(cur); err != nil {
				return nil, err
			}
			cur.Rows = cur.Rows[:0]
		}
		if len(cur.Rows) == 0 {
			cur.Value = p.value
		}
		cur.Rows = append(cur.Rows, p.id)
	}
	if len(cur.Rows) != 0 {
		if err := cut.add(cur); err != nil {
			return nil, err
		}
	}
	if err := cut.flush(); err != nil {
		return nil, err
	}
	return cut.metas, nil
}

// writer holds a build's pairs: per dimension the buffered pairs and the
// sorted runs spilled so far, in a temporary directory made on the first
// spill.
type writer struct {
	bufs    [][]pair
	runs    [][]string
	tmp     string
	scratch []pair // sortPairs' second buffer, reused by every sort
}

func (w *writer) add(d int, p pair) error {
	if buf := w.bufs[d]; len(buf) == cap(buf) {
		w.bufs[d] = append(make([]pair, 0, spillPairs), buf...)
	}
	w.bufs[d] = append(w.bufs[d], p)
	if len(w.bufs[d]) >= spillPairs {
		return w.spill(d)
	}
	return nil
}

// spill sorts dimension d's buffer and writes it as one run file.
func (w *writer) spill(d int) error {
	if w.tmp == "" {
		tmp, err := os.MkdirTemp("", "uei-spill-")
		if err != nil {
			return fmt.Errorf("chunkstore: spill dir: %w", err)
		}
		w.tmp = tmp
	}
	buf := w.bufs[d]
	w.scratch = sortPairs(buf, w.scratch)
	name := filepath.Join(w.tmp, fmt.Sprintf("d%02d_run%05d.spill", d, len(w.runs[d])))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("chunkstore: create run file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var rec [pairSize]byte
	for _, p := range buf {
		binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(p.value))
		binary.LittleEndian.PutUint32(rec[8:12], p.id)
		bw.Write(rec[:]) // a write error sticks and is returned by Flush
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("chunkstore: flush run file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("chunkstore: close run file: %w", err)
	}
	w.runs[d] = append(w.runs[d], name)
	w.bufs[d] = buf[:0]
	return nil
}

// removeRuns deletes the spill directory, if the build made one.
func (w *writer) removeRuns() {
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
	}
}

// comparePairs orders by (value, id) so merged streams group duplicates
// with ascending posting lists. It is the k-way merge's order; sortPairs
// produces the same order without calling it.
func comparePairs(a, b pair) int {
	if c := cmp.Compare(a.value, b.value); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// pairKey maps a finite value to a key whose unsigned order is the value's
// order: negative values have every bit flipped, the others only the sign
// bit. -0 becomes +0 first, so the two zeros tie as cmp.Compare has them.
func pairKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortPairs sorts v into comparePairs order with a stable LSD radix sort
// on pairKey, one byte a pass, skipping a byte every key shares. Stability
// gives (value, id) order because the writer appends ids ascending; v must
// hold them so. scratch is the second buffer, grown to len(v) when short
// and returned for the next sort.
func sortPairs(v, scratch []pair) []pair {
	n := len(v)
	if n < 2 {
		return scratch
	}
	if cap(scratch) < n {
		scratch = make([]pair, n)
	}
	scratch = scratch[:n]
	var counts [8][256]int
	for _, p := range v {
		k := pairKey(p.value)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := pairKey(v[0].value)
	src, dst := v, scratch
	for pass := range counts {
		shift := 8 * pass
		c := &counts[pass]
		if c[byte(first>>shift)] == n {
			continue
		}
		sum := 0
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, p := range src {
			b := byte(pairKey(p.value) >> shift)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
	return scratch
}

// merged returns a pull iterator over the k-way merge of dimension d's
// runs and its residual buffer, and a cleanup func closing the run
// readers.
func (w *writer) merged(d int) (func() (pair, bool, error), func(), error) {
	// The residual (unspilled) buffer becomes an in-memory "run".
	residual := w.bufs[d]
	w.scratch = sortPairs(residual, w.scratch)
	ri := 0

	readers := make([]*runReader, 0, len(w.runs[d]))
	cleanup := func() {
		for _, r := range readers {
			r.close()
		}
	}
	h := &mergeHeap{}
	for _, name := range w.runs[d] {
		r, err := openRunReader(name)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		readers = append(readers, r)
		p, ok, err := r.next()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if ok {
			heap.Push(h, mergeItem{pair: p, src: r})
		}
	}
	next := func() (pair, bool, error) {
		// Choose between the heap's head and the residual cursor.
		if h.Len() == 0 {
			if ri >= len(residual) {
				return pair{}, false, nil
			}
			p := residual[ri]
			ri++
			return p, true, nil
		}
		top := (*h)[0]
		if ri < len(residual) && comparePairs(residual[ri], top.pair) < 0 {
			p := residual[ri]
			ri++
			return p, true, nil
		}
		item := heap.Pop(h).(mergeItem)
		if p, ok, err := item.src.next(); err != nil {
			return pair{}, false, err
		} else if ok {
			heap.Push(h, mergeItem{pair: p, src: item.src})
		}
		return item.pair, true, nil
	}
	return next, cleanup, nil
}

// runReader streams one spilled run file.
type runReader struct {
	f *os.File
	r *bufio.Reader
}

func openRunReader(name string) (*runReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("chunkstore: open run file: %w", err)
	}
	return &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}, nil
}

func (r *runReader) next() (pair, bool, error) {
	var rec [pairSize]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return pair{}, false, nil
		}
		return pair{}, false, fmt.Errorf("chunkstore: read run file: %w", err)
	}
	return pair{
		value: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
		id:    binary.LittleEndian.Uint32(rec[8:12]),
	}, true, nil
}

func (r *runReader) close() { r.f.Close() }

// mergeHeap is a min-heap of run heads ordered by (value, id).
type mergeItem struct {
	pair pair
	src  *runReader
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return comparePairs(h[i].pair, h[j].pair) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
