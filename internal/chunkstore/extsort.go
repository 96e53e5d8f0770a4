package chunkstore

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/uei-db/uei/internal/dataset"
)

// The external build path constructs the same chunk store as Build without
// ever materializing the dataset in memory: one streaming pass over the
// input appends (value, rowID) pairs to bounded in-memory buffers that
// spill to sorted run files; a k-way merge per dimension then streams the
// globally sorted postings straight into chunk files. This is the build
// path a deployment actually uses for the paper's scenario, where the
// dataset is 100x the available memory before it is ever indexed.

// pairSize is the on-disk size of one spill pair (float64 value + uint32
// row id).
const pairSize = 12

// pair is one (value, rowID) posting element.
type pair struct {
	value float64
	id    uint32
}

// ExternalBuildOptions configures BuildExternal.
type ExternalBuildOptions struct {
	// TargetChunkBytes is the equal-size chunk target (Table 1);
	// zero selects DefaultTargetChunkBytes.
	TargetChunkBytes int
	// MaxPairsInMemory bounds the per-dimension spill buffer; the build's
	// peak memory is roughly dims x MaxPairsInMemory x 16 bytes. Zero
	// selects 1<<20 pairs (~16 MiB per dimension).
	MaxPairsInMemory int
	// TempDir hosts the spill run files; empty uses the OS temp dir. The
	// directory's transient usage is about the size of the final store.
	TempDir string
}

// RowIterator yields rows in ascending id order; it returns ok=false at
// the end of the stream. Implementations need not be resettable: the build
// makes exactly one pass.
type RowIterator func() (row []float64, ok bool, err error)

// DatasetIterator adapts an in-memory dataset to a RowIterator (used by
// tests to compare the two build paths).
func DatasetIterator(ds *dataset.Dataset) RowIterator {
	i := 0
	return func() ([]float64, bool, error) {
		if i >= ds.Len() {
			return nil, false, nil
		}
		row := ds.Row(dataset.RowID(i))
		i++
		return row, true, nil
	}
}

// BuildExternal creates a chunk store in dir from a single streaming pass
// over rows, using external sorting so memory stays bounded regardless of
// input size. The resulting store is byte-for-byte equivalent in content
// to Build over the same data (chunk boundaries and manifest included).
func BuildExternal(dir string, columns []string, rows RowIterator, opts ExternalBuildOptions) (*Store, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("chunkstore: external build needs at least one column")
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
	maxPairs := opts.MaxPairsInMemory
	if maxPairs == 0 {
		maxPairs = 1 << 20
	}
	if maxPairs < 1 {
		return nil, fmt.Errorf("chunkstore: MaxPairsInMemory %d must be positive", maxPairs)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkstore: create %s: %w", dir, err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return nil, fmt.Errorf("chunkstore: inspect %s: %w", dir, err)
	} else if len(entries) > 0 {
		return nil, fmt.Errorf("chunkstore: directory %s is not empty", dir)
	}
	tempDir, err := os.MkdirTemp(opts.TempDir, "uei-extsort-")
	if err != nil {
		return nil, fmt.Errorf("chunkstore: temp dir: %w", err)
	}
	defer os.RemoveAll(tempDir)

	dims := len(columns)
	spillers := make([]*spiller, dims)
	for d := range spillers {
		spillers[d] = newSpiller(tempDir, d, maxPairs)
	}
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
			if rowCount == 0 || v < minVals[d] {
				minVals[d] = v
			}
			if rowCount == 0 || v > maxVals[d] {
				maxVals[d] = v
			}
			if err := spillers[d].add(pair{value: v, id: uint32(rowCount)}); err != nil {
				return nil, err
			}
		}
		rowCount++
	}
	if rowCount == 0 {
		return nil, fmt.Errorf("chunkstore: refusing to build from an empty stream")
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
	for d := 0; d < dims; d++ {
		merged, cleanup, err := spillers[d].mergedStream()
		if err != nil {
			return nil, err
		}
		metas, err := writeChunksFromPairs(dir, d, target, merged)
		cleanup()
		if err != nil {
			return nil, err
		}
		m.Chunks[d] = metas
	}
	if err := saveManifest(dir, m); err != nil {
		return nil, err
	}
	return &Store{dir: dir, manifest: m}, nil
}

// writeChunksFromPairs groups a (value,id)-sorted pair stream into entries
// and cuts them into chunks as Build does.
func writeChunksFromPairs(dir string, dim, target int, next func() (pair, bool, error)) ([]ChunkMeta, error) {
	cut := chunkCutter{dir: dir, dim: dim, target: target}
	var cur Entry
	haveCur := false
	for {
		p, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch {
		case !haveCur:
			cur = Entry{Value: p.value, Rows: []uint32{p.id}}
			haveCur = true
		case p.value == cur.Value:
			cur.Rows = append(cur.Rows, p.id)
		default:
			if p.value < cur.Value {
				return nil, fmt.Errorf("chunkstore: merge produced unsorted values (%g after %g)", p.value, cur.Value)
			}
			if err := cut.add(cur); err != nil {
				return nil, err
			}
			cur = Entry{Value: p.value, Rows: []uint32{p.id}}
		}
	}
	if haveCur {
		if err := cut.add(cur); err != nil {
			return nil, err
		}
	}
	if err := cut.flush(); err != nil {
		return nil, err
	}
	return cut.metas, nil
}

// spiller accumulates pairs for one dimension, spilling sorted runs.
type spiller struct {
	dir      string
	dim      int
	maxPairs int
	buf      []pair
	runs     []string
}

func newSpiller(dir string, dim, maxPairs int) *spiller {
	return &spiller{dir: dir, dim: dim, maxPairs: maxPairs}
}

func (s *spiller) add(p pair) error {
	s.buf = append(s.buf, p)
	if len(s.buf) >= s.maxPairs {
		return s.spill()
	}
	return nil
}

// spill sorts the buffer and writes it as one run file.
func (s *spiller) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sortPairs(s.buf)
	name := filepath.Join(s.dir, fmt.Sprintf("d%02d_run%05d.spill", s.dim, len(s.runs)))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("chunkstore: create run file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [pairSize]byte
	for _, p := range s.buf {
		binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(p.value))
		binary.LittleEndian.PutUint32(rec[8:12], p.id)
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return fmt.Errorf("chunkstore: write run file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("chunkstore: flush run file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("chunkstore: close run file: %w", err)
	}
	s.runs = append(s.runs, name)
	s.buf = s.buf[:0]
	return nil
}

// sortPairs orders by (value, id) so merged streams group duplicates with
// ascending posting lists.
func sortPairs(v []pair) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].value != v[j].value {
			return v[i].value < v[j].value
		}
		return v[i].id < v[j].id
	})
}

// mergedStream returns a pull iterator over the k-way merge of all runs
// plus the residual buffer, and a cleanup func closing the run readers.
func (s *spiller) mergedStream() (func() (pair, bool, error), func(), error) {
	// The residual (unspilled) buffer becomes an in-memory "run".
	sortPairs(s.buf)
	residual := s.buf
	ri := 0

	readers := make([]*runReader, 0, len(s.runs))
	cleanup := func() {
		for _, r := range readers {
			r.close()
		}
	}
	h := &mergeHeap{}
	for _, name := range s.runs {
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
		if ri < len(residual) && pairLess(residual[ri], top.pair) {
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

func pairLess(a, b pair) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	return a.id < b.id
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
func (h mergeHeap) Less(i, j int) bool  { return pairLess(h[i].pair, h[j].pair) }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
