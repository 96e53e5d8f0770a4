package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// lumpyStore builds a store over n rows whose coordinates are small
// integers, so every value is shared by many rows, box edges can sit
// exactly on stored values, and a chunk holds a handful of long posting
// lists.
func lumpyStore(t testing.TB, n, dims, distinct, chunkBytes int, seed int64) (*Store, *dataset.Dataset) {
	t.Helper()
	names := make([]string, dims)
	for d := range names {
		names[d] = fmt.Sprintf("c%d", d)
	}
	ds := dataset.New(dataset.MustSchema(names...), n)
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = float64(rng.Intn(distinct))
		}
		if _, err := ds.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, ds
}

// bruteVisited counts, from the dataset and the manifest's chunk ranges
// alone, the posting entries a merge of box must visit: in every chunk
// overlapping the box on its dimension, each distinct value up to the
// box's upper edge and the first one past it.
func bruteVisited(st *Store, ds *dataset.Dataset, box vec.Box) int {
	visited := 0
	for d := 0; d < ds.Dims(); d++ {
		seen := map[float64]bool{}
		for i := 0; i < ds.Len(); i++ {
			seen[ds.At(dataset.RowID(i), d)] = true
		}
		for _, c := range st.Manifest().Chunks[d] {
			if c.MaxValue < box.Min[d] || c.MinValue > box.Max[d] {
				continue
			}
			past := false
			for v := range seen {
				switch {
				case v < c.MinValue || v > c.MaxValue:
				case v <= box.Max[d]:
					visited++
				default:
					past = true
				}
			}
			if past {
				visited++
			}
		}
	}
	return visited
}

// diffRows compares reconstructed rows with the dataset rows of the given
// ids (ascending), bit for bit and in order; it returns "" when they agree.
func diffRows(got []MergedRow, ds *dataset.Dataset, want []dataset.RowID) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, brute force has %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != uint32(want[i]) || !slices.Equal(r.Vals, ds.Row(want[i])) {
			return fmt.Sprintf("row %d is %d %v, want %d %v", i, r.ID, r.Vals, want[i], ds.Row(want[i]))
		}
	}
	return ""
}

func requireRows(t *testing.T, what string, got []MergedRow, ds *dataset.Dataset, want []dataset.RowID) {
	t.Helper()
	if diff := diffRows(got, ds, want); diff != "" {
		t.Fatalf("%s: %s", what, diff)
	}
}

// requireScratchClean takes every pooled scratch of the store and fails if
// a bit of either set, a rank word or a list entry — MergeChunks' rows,
// FetchRows' wanted rows — is still there: the state a later
// reconstruction would inherit.
func requireScratchClean(t *testing.T, st *Store) {
	t.Helper()
	var held []*scratch
	for {
		sc, ok := st.scratch.Get().(*scratch)
		if !ok {
			break
		}
		held = append(held, sc)
		for d, l := range sc.lists {
			if len(l.ids) != 0 || len(l.vals) != 0 {
				t.Fatalf("pooled scratch still lists %d rows of dimension %d", len(l.ids), d)
			}
		}
		for name, words := range map[string][]uint32{"set": sc.set, "next": sc.next, "rank": sc.rank} {
			for w, bits := range words {
				if bits != 0 {
					t.Fatalf("pooled scratch is dirty: %s word %d is %#x", name, w, bits)
				}
			}
		}
		if sc.lo != 0 || sc.hi != 0 {
			t.Fatalf("pooled scratch still spans words [%d,%d)", sc.lo, sc.hi)
		}
	}
	for _, sc := range held {
		st.scratch.Put(sc)
	}
}

// TestReconstructAgainstBruteForce: rows, their order and entriesVisited
// of MergeRegion, and the rows of FetchRows, against a filter of the
// dataset — on generated stores with heavily duplicated values, for boxes
// whose edges are stored values, that select nothing, one value, or
// everything, and for id lists with repeats in any order.
func TestReconstructAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	shapes := []struct{ n, dims, distinct, chunkBytes int }{
		{1, 3, 5, 64},
		{40, 1, 4, 64},
		{700, 2, 30, 128},
		{900, 4, 12, 256},
		{1500, 5, 8, 4096},
	}
	for si, sh := range shapes {
		st, ds := lumpyStore(t, sh.n, sh.dims, sh.distinct, sh.chunkBytes, int64(100+si))
		rng := rand.New(rand.NewSource(int64(200 + si)))
		bounds, err := ds.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		boxes := []vec.Box{bounds}
		point := ds.CopyRow(dataset.RowID(rng.Intn(sh.n)))
		boxes = append(boxes, vec.NewBox(point, append([]float64(nil), point...)))
		beyond := vec.NewBox(append([]float64(nil), bounds.Min...), append([]float64(nil), bounds.Max...))
		beyond.Min[sh.dims-1], beyond.Max[sh.dims-1] = float64(sh.distinct)+1, float64(sh.distinct)+2
		boxes = append(boxes, beyond)
		for trial := 0; trial < 25; trial++ {
			lo, hi := make([]float64, sh.dims), make([]float64, sh.dims)
			for d := range lo {
				a, b := float64(rng.Intn(sh.distinct)), float64(rng.Intn(sh.distinct))
				if trial%3 == 0 {
					a, b = a-0.5, b+0.5 // edges between stored values
				}
				lo[d], hi[d] = min(a, b), max(a, b)
			}
			boxes = append(boxes, vec.NewBox(lo, hi))
		}
		for bi, box := range boxes {
			what := fmt.Sprintf("shape %d box %d %v..%v", si, bi, box.Min, box.Max)
			rows, visited, err := st.MergeRegion(ctx, box)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireRows(t, what, rows, ds, ds.Select(box))
			if want := bruteVisited(st, ds, box); visited != want {
				t.Fatalf("%s: %d entries visited, brute force counts %d", what, visited, want)
			}
		}

		for trial := 0; trial < 10; trial++ {
			ids := make([]uint32, 1+rng.Intn(2*sh.n))
			for i := range ids {
				ids[i] = uint32(rng.Intn(sh.n))
			}
			uniq := slices.Clone(ids)
			slices.Sort(uniq)
			uniq = slices.Compact(uniq)
			want := make([]dataset.RowID, len(uniq))
			for i, id := range uniq {
				want[i] = dataset.RowID(id)
			}
			rows, err := st.FetchRows(ctx, ids)
			if err != nil {
				t.Fatal(err)
			}
			requireRows(t, fmt.Sprintf("shape %d fetch %d", si, trial), rows, ds, want)
		}
		requireScratchClean(t, st)
	}
}

// TestReconstructRejectsBadRowIDs: a posting id at or beyond RowCount —
// which, repeated on every dimension, used to come back as a row that does
// not exist — is an error on both paths, and so is a dimensionality the
// one-byte hit counter cannot count.
func TestReconstructRejectsBadRowIDs(t *testing.T) {
	ctx := context.Background()
	for _, path := range []string{"MergeChunks", "FetchRows"} {
		t.Run(path, func(t *testing.T) {
			st, ds := lumpyStore(t, 30, 1, 3, 4096, 5)
			meta := st.Manifest().Chunks[0][0]
			meta = spliceChunk(t, st, meta, []Entry{{Value: 1, Rows: []uint32{2, 30}}})
			bounds, _ := ds.Bounds()
			var err error
			if path == "MergeChunks" {
				_, _, err = st.MergeChunks(ctx, bounds, []ChunkMeta{meta})
			} else {
				_, err = st.FetchRows(ctx, []uint32{2})
			}
			if err == nil || !strings.Contains(err.Error(), "chunkstore: row 30 out of range [0,30)") {
				t.Fatalf("err = %v, want a row-out-of-range error", err)
			}
			requireScratchClean(t, st)
		})
	}

	wide := func(dims int) *Store {
		cols := make([]string, dims)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		box := vec.NewBox(make([]float64, dims), make([]float64, dims))
		st, err := BuildEmpty(t.TempDir(), cols, box, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := wide(256)
	if _, _, err := st.MergeChunks(ctx, st.Bounds(), nil); err == nil || !strings.Contains(err.Error(), "one-byte hit counter") {
		t.Errorf("256-dimension merge: err = %v, want the hit-counter refusal", err)
	}
	// 255 dimensions fit the counter; marking a wanted row takes FetchRows
	// one value more.
	st = wide(255)
	if _, _, err := st.MergeChunks(ctx, st.Bounds(), nil); err != nil {
		t.Errorf("255-dimension merge: %v", err)
	}
	if _, err := st.FetchRows(ctx, []uint32{0}); err == nil || !strings.Contains(err.Error(), "one-byte hit counter") {
		t.Errorf("255-dimension fetch: err = %v, want the hit-counter refusal", err)
	}
}

// failAfter is a context that reports cancellation from its (left+1)-th
// Err call on. The disk read path asks once per chunk, so it cancels a
// reconstruction at an exact chunk: inside dimension 0, between two
// dimensions, at the last chunk.
type failAfter struct {
	context.Context
	left atomic.Int32
}

func (c *failAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelAtChunk(k int) context.Context {
	c := &failAfter{Context: context.Background()}
	c.left.Store(int32(k))
	return c
}

// TestReconstructSurvivesFailures: a reconstruction cancelled at every
// possible chunk — between two chunks of dimension 0, which opens the
// candidates, and of a later, member-filtered dimension — or stopped by a
// data file truncated under it, returns the error, leaves the pooled
// scratch zeroed, and the next one is exact.
func TestReconstructSurvivesFailures(t *testing.T) {
	st, ds := lumpyStore(t, 800, 3, 10, 256, 9)
	box := vec.NewBox([]float64{2, 0, 3}, []float64{6, 9, 8})
	want := ds.Select(box)
	var chunks []ChunkMeta
	for d := 0; d < 3; d++ {
		overlap, err := st.ChunksOverlapping(d, box.Min[d], box.Max[d])
		if err != nil {
			t.Fatal(err)
		}
		if len(overlap) < 2 {
			t.Fatalf("dimension %d: the box overlaps %d chunks; a cancel inside the dimension needs two", d, len(overlap))
		}
		chunks = append(chunks, overlap...)
	}
	exact := func(what string) {
		t.Helper()
		requireScratchClean(t, st)
		rows, _, err := st.MergeChunks(context.Background(), box, chunks)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireRows(t, what, rows, ds, want)
		got, err := st.FetchRows(context.Background(), []uint32{799, 0, 5, 5})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireRows(t, what, got, ds, []dataset.RowID{0, 5, 799})
	}

	for k := range chunks {
		if _, _, err := st.MergeChunks(cancelAtChunk(k), box, chunks); !errors.Is(err, context.Canceled) {
			t.Fatalf("merge cancelled at chunk %d: err = %v", k, err)
		}
		exact(fmt.Sprintf("merge after a cancel at chunk %d", k))
	}
	for _, k := range []int{0, 1, len(st.Manifest().Chunks[0]), len(st.Manifest().Chunks[0]) + 1} {
		if _, err := st.FetchRows(cancelAtChunk(k), []uint32{3, 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch cancelled at chunk %d: err = %v", k, err)
		}
		exact(fmt.Sprintf("merge after a fetch cancelled at chunk %d", k))
	}

	// The last chunk of the last dimension: everything before it landed.
	last := chunks[len(chunks)-1]
	victim := filepath.Join(st.dir, dataFileName(last.Dim))
	whole, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, whole[:last.Offset+last.Bytes/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.MergeChunks(context.Background(), box, chunks); err == nil {
		t.Fatal("merge over a truncated chunk succeeded")
	}
	if _, err := st.FetchRows(context.Background(), []uint32{1}); err == nil {
		t.Fatal("fetch over a truncated chunk succeeded")
	}
	if err := os.WriteFile(victim, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	exact("merge after a truncated chunk")
}

// TestReconstructConcurrent: 8 goroutines merge different boxes of one
// store (and fetch rows) while a ninth keeps cancelling its own merge part
// way through; every result equals the serial one. Run under -race.
func TestReconstructConcurrent(t *testing.T) {
	st, ds := lumpyStore(t, 1200, 3, 9, 512, 13)
	st.SetWorkers(2)
	rng := rand.New(rand.NewSource(14))
	boxes := make([]vec.Box, 8)
	for i := range boxes {
		lo, hi := make([]float64, 3), make([]float64, 3)
		for d := range lo {
			a, b := float64(rng.Intn(9)), float64(rng.Intn(9))
			lo[d], hi[d] = min(a, b), max(a, b)
		}
		boxes[i] = vec.NewBox(lo, hi)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := st.MergeRegion(cancelAtChunk(k%7), boxes[k%len(boxes)]); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("cancelling merger: %v", err)
				return
			}
		}
	}()
	var mergers sync.WaitGroup
	for i := range boxes {
		mergers.Add(1)
		go func() {
			defer mergers.Done()
			want := ds.Select(boxes[i])
			for round := 0; round < 20; round++ {
				rows, _, err := st.MergeRegion(context.Background(), boxes[i])
				if err != nil {
					t.Errorf("merger %d: %v", i, err)
					return
				}
				if diff := diffRows(rows, ds, want); diff != "" {
					t.Errorf("merger %d round %d: %s", i, round, diff)
					return
				}
				id := dataset.RowID(i*100 + round)
				got, err := st.FetchRows(context.Background(), []uint32{uint32(id)})
				if err != nil {
					t.Errorf("merger %d round %d: fetch of row %d: %v", i, round, id, err)
					return
				}
				if diff := diffRows(got, ds, []dataset.RowID{id}); diff != "" {
					t.Errorf("merger %d round %d: fetch of row %d: %s", i, round, id, diff)
					return
				}
			}
		}()
	}
	mergers.Wait()
	close(stop)
	wg.Wait()
	requireScratchClean(t, st)
}
