package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/vec"
)

// TestReadChunkRefusesResizedFile: a data file resized under an open store
// is refused by name. Cut short, every read path fails at the first chunk
// whose extent is past the cut, naming it and its file; grown (to 256 MiB,
// sparse), the store still reads its extents exactly, and a reopen refuses
// it without allocating its size. The store reads exactly again once the
// file is restored.
func TestReadChunkRefusesResizedFile(t *testing.T) {
	ctx := context.Background()
	st, ds := buildTestStore(t, 500, 4)
	path := filepath.Join(st.dir, "d01.chk")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(what string) {
		t.Helper()
		rows, _, err := st.MergeRegion(ctx, st.Bounds())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireRows(t, what, rows, ds, ds.Select(st.Bounds()))
	}
	reopenRefused := func(size int64) {
		t.Helper()
		want := fmt.Sprintf("chunkstore: data file %s is %d bytes, its chunks in the manifest %d", path, size, len(whole))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Open(st.dir, nil)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want {
			t.Fatalf("Open over a %d-byte file: err = %v, want %q", size, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a %d-byte file allocated %d bytes", size, grew)
		}
	}

	if err := os.Truncate(path, 256<<20); err != nil {
		t.Fatal(err)
	}
	exact("merge over a grown file")
	reopenRefused(256 << 20)

	cut := int64(len(whole) / 2)
	if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	chunks := st.Manifest().Chunks[1]
	i := 0
	for chunks[i].Offset+chunks[i].Bytes <= cut {
		i++
	}
	victim := chunks[i]
	want := fmt.Sprintf("chunkstore: read chunk %s of d01.chk: read %d bytes of %d at %d", victim.File, cut-victim.Offset, victim.Bytes, victim.Offset)
	if _, err := st.ReadChunk(ctx, victim); err == nil || err.Error() != want {
		t.Fatalf("ReadChunk past the cut: err = %v, want %q", err, want)
	}
	if _, err := st.ReadChunk(ctx, chunks[0]); err != nil {
		t.Fatalf("ReadChunk before the cut: %v", err)
	}
	if _, _, err := st.MergeRegion(ctx, st.Bounds()); err == nil || err.Error() != want {
		t.Fatalf("MergeRegion over a cut file: err = %v, want %q", err, want)
	}
	if _, err := st.FetchRows(ctx, []uint32{1}); err == nil || err.Error() != want {
		t.Fatalf("FetchRows over a cut file: err = %v, want %q", err, want)
	}
	reopenRefused(cut)

	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	exact("merge after the file is restored")
}

// clonePostings copies p into storage of its own, as a fresh decode leaves
// it: a multi-row chunk's ends are its own end storage.
func clonePostings(p Postings) Postings {
	c := Postings{Values: slices.Clone(p.Values), Ends: slices.Clone(p.Ends), Rows: slices.Clone(p.Rows)}
	if len(p.Rows) != len(p.Values) {
		c.ends = c.Ends
	}
	return c
}

// samePostings reports whether a and b are the same three arrays, not
// merely equal ones.
func samePostings(a, b Postings) bool {
	return &a.Values[0] == &b.Values[0] && &a.Ends[0] == &b.Ends[0] && &a.Rows[0] == &b.Rows[0]
}

// TestReadChunksOrderedVisitScope pins the lifetime contract. Without a
// block cache the postings of a visit live in arrays the next visit is
// decoded over — the same memory, so the reuse is real — and a copy taken
// inside the visit is what readChunkDisk, the owning read, returns. With a
// cache the visit sees the cached arrays themselves, which stay valid.
func TestReadChunksOrderedVisitScope(t *testing.T) {
	ctx := context.Background()
	st, _ := lumpyStore(t, 900, 2, 40, 128, 31)
	var metas []ChunkMeta
	for _, dim := range st.Manifest().Chunks {
		metas = append(metas, dim...)
	}
	if len(metas) < 4 {
		t.Fatalf("store has %d chunks, the test wants several", len(metas))
	}

	// The same chunk three times: after the first visit the arrays are
	// large enough, so nothing may move.
	var seen []Postings
	m := metas[0]
	err := st.ReadChunksOrdered(ctx, []ChunkMeta{m, m, m}, func(_ ChunkMeta, p Postings) error {
		seen = append(seen, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !samePostings(seen[1], seen[0]) || !samePostings(seen[2], seen[0]) {
		t.Fatalf("consecutive visits decoded into different memory: values %p %p %p, ends %p %p %p, row ids %p %p %p",
			&seen[0].Values[0], &seen[1].Values[0], &seen[2].Values[0], &seen[0].Ends[0], &seen[1].Ends[0], &seen[2].Ends[0],
			&seen[0].Rows[0], &seen[1].Rows[0], &seen[2].Rows[0])
	}

	for _, workers := range []int{0, 3} {
		st.SetWorkers(workers)
		var copies []Postings
		err := st.ReadChunksOrdered(ctx, metas, func(_ ChunkMeta, p Postings) error {
			copies = append(copies, clonePostings(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range metas {
			own, err := st.readChunkDisk(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(copies[i], own) {
				t.Fatalf("workers %d: the copy taken in visit %d differs from the owning read of %s", workers, i, m.File)
			}
		}
	}

	withBlockCache(t, st, 64<<20)
	for _, workers := range []int{0, 3} {
		st.SetWorkers(workers)
		var kept []Postings
		err := st.ReadChunksOrdered(ctx, metas, func(_ ChunkMeta, p Postings) error {
			kept = append(kept, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range metas {
			cached, err := st.readChunkFor(ctx, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !samePostings(kept[i], cached) {
				t.Fatalf("workers %d: visit %d saw arrays that are not the cached ones", workers, i)
			}
			disk, err := st.readChunkDisk(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kept[i], disk) {
				t.Fatalf("workers %d: the arrays kept from visit %d no longer equal chunk %s", workers, i, m.File)
			}
		}
	}
}

// TestPipelinedReadFailuresAndLeaks drives the pipelined path (4 workers)
// from 8 goroutines while two more cancel mid-call and the test fails a
// visit at every chunk index in turn. Every completed result must equal
// the sequential one; a call issued right after each injected failure must
// be exact, which it would not be had a buffer gone back to the pool while
// a reader could still write it; and once the calls drain no goroutine is
// left behind. Run under -race.
func TestPipelinedReadFailuresAndLeaks(t *testing.T) {
	ctx := context.Background()
	st, ds := lumpyStore(t, 2500, 3, 60, 256, 41)
	var all []ChunkMeta
	for _, dim := range st.Manifest().Chunks {
		all = append(all, dim...)
	}
	if len(all) < 12 {
		t.Fatalf("store has %d chunks, the test wants a pipeline's worth", len(all))
	}
	boxes := make([]vec.Box, 8)
	want := make([][]MergedRow, len(boxes))
	for i := range boxes {
		lo := float64(i * 5)
		boxes[i] = vec.NewBox([]float64{lo, 0, lo / 2}, []float64{lo + 25, 59, lo/2 + 40})
		rows, _, err := st.MergeRegion(ctx, boxes[i])
		if err != nil {
			t.Fatal(err)
		}
		requireRows(t, fmt.Sprintf("sequential box %d", i), rows, ds, ds.Select(boxes[i]))
		want[i] = rows
	}
	ids := []uint32{2499, 7, 7, 1200, 0}
	wantFetch, err := st.FetchRows(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	st.SetWorkers(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				rows, _, err := st.MergeRegion(ctx, boxes[i])
				if err == nil && !reflect.DeepEqual(rows, want[i]) {
					err = errors.New("rows differ from the sequential result")
				}
				if err != nil {
					t.Errorf("merger %d round %d: merge: %v", i, round, err)
					return
				}
				got, err := st.FetchRows(ctx, ids)
				if err == nil && !reflect.DeepEqual(got, wantFetch) {
					err = errors.New("rows differ from the sequential result")
				}
				if err != nil {
					t.Errorf("merger %d round %d: fetch: %v", i, round, err)
					return
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := st.MergeRegion(cancelAtChunk(k%len(all)), st.Bounds()); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("canceller %d: %v", c, err)
					return
				}
			}
		}()
	}

	injected := errors.New("injected visit failure")
	for k := range all {
		seen := 0
		err := st.ReadChunksOrdered(ctx, all, func(ChunkMeta, Postings) error {
			if seen == k {
				return injected
			}
			seen++
			return nil
		})
		if !errors.Is(err, injected) {
			t.Fatalf("visit failing at chunk %d: err = %v", k, err)
		}
		rows, _, err := st.MergeRegion(ctx, boxes[k%len(boxes)])
		if err != nil {
			t.Fatalf("merge after a visit failed at chunk %d: %v", k, err)
		}
		requireRows(t, fmt.Sprintf("merge after a visit failed at chunk %d", k), rows, ds, ds.Select(boxes[k%len(boxes)]))
	}
	close(stop)
	wg.Wait()

	// Readers still in flight when a call returned early finish on their own.
	leakcheck.WaitGoroutines(t, baseline, 10*time.Second)
	requireScratchClean(t, st)
}

// TestColdReadAllocations pins what the pooled decode buys, as counts: a
// warm cold-path cell merge and a γ-sample fetch of 2 000 ids over a
// 50 000-row store (the root module's BenchmarkChunkstoreMergeRegion and
// BenchmarkFetchRows; 54 443 and 199 759 allocations per call before the
// decoder took caller-owned storage).
func TestColdReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the count is only meaningful without it")
	}
	ctx := context.Background()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 50_000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	// One cell of a 5-segment grid, away from the corner.
	b := st.Bounds()
	lo, hi := make([]float64, st.Dims()), make([]float64, st.Dims())
	for d := range lo {
		w := (b.Max[d] - b.Min[d]) / 5
		lo[d], hi[d] = b.Min[d]+2*w, b.Min[d]+3*w
	}
	cell := vec.NewBox(lo, hi)
	merge := testing.AllocsPerRun(20, func() {
		if _, _, err := st.MergeRegion(ctx, cell); err != nil {
			t.Fatal(err)
		}
	})
	if merge > 200 {
		t.Errorf("MergeRegion of one cell: %.0f allocations per call, want at most 200", merge)
	}
	ids := make([]uint32, 2000)
	for i := range ids {
		ids[i] = uint32(i * 25)
	}
	fetch := testing.AllocsPerRun(10, func() {
		if _, err := st.FetchRows(ctx, ids); err != nil {
			t.Fatal(err)
		}
	})
	if fetch > 400 {
		t.Errorf("FetchRows of %d ids: %.0f allocations per call, want at most 400", len(ids), fetch)
	}
	t.Logf("allocations per call: MergeRegion %.0f, FetchRows %.0f", merge, fetch)
}
