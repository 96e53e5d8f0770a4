package chunkstore

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/vec"
)

// requireFilesUnder fails unless the process holds exactly want
// descriptors on files under dir.
func requireFilesUnder(t *testing.T, what, dir string, want int) {
	t.Helper()
	if got := leakcheck.FilesUnder(dir); len(got) != want {
		t.Fatalf("%s: %d descriptors under the store, want %d: %v", what, len(got), want, got)
	}
}

// TestReadRefusesManifestLargerThanFile: a manifest record claiming more
// bytes than its data file holds is refused at Open, by the size check on
// the opened file, before a buffer of the claimed size exists — and the
// refused store keeps no file open.
func TestReadRefusesManifestLargerThanFile(t *testing.T) {
	st, _ := buildTestStore(t, 500, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var actual int64
	for _, c := range st.manifest.Chunks[2] {
		actual += c.Bytes
	}
	claimed := actual - st.manifest.Chunks[2][0].Bytes + 256<<20
	want := fmt.Sprintf("chunkstore: data file %s is %d bytes, its chunks in the manifest %d", filepath.Join(st.dir, "d02.chk"), actual, claimed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := reopenDoctored(t, st, func(m *Manifest) { m.Chunks[2][0].Bytes = 256 << 20 })
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a %d-byte claim allocated %d bytes", claimed, grew)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "a refused Open", st.dir, 0)
	}
}

// TestStoreHoldsItsDimensionFiles: a store holds exactly its D data files
// from Open to Close — eight goroutines reading every chunk at once read
// what one reader does and open nothing more — and none after Close. Run
// it under -race.
func TestStoreHoldsItsDimensionFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	ctx := context.Background()
	built, _ := buildTestStore(t, 500, 5)
	var metas []ChunkMeta
	var wants [][]Entry
	for _, chunks := range built.Manifest().Chunks {
		for _, meta := range chunks {
			want, err := built.ReadChunk(ctx, meta)
			if err != nil {
				t.Fatal(err)
			}
			metas, wants = append(metas, meta), append(wants, want)
		}
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	requireFilesUnder(t, "a closed store", built.dir, 0)
	st, err := Open(built.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	dims := st.Dims()
	requireFilesUnder(t, "Open", st.dir, dims)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range metas {
				i := (k + g*len(metas)/len(errs)) % len(metas)
				got, err := st.ReadChunk(ctx, metas[i])
				if err == nil && !reflect.DeepEqual(got, wants[i]) {
					err = fmt.Errorf("%s read other entries than one reader", metas[i].File)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
	requireFilesUnder(t, "eight concurrent readers", st.dir, dims)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireFilesUnder(t, "Close", st.dir, 0)
}

// TestReadAfterCloseOpensNothing: a read after Close fails naming the
// store — a block-cached chunk too — and opens nothing. A meta that is not
// the manifest's own record is refused the same way, before it is read.
func TestReadAfterCloseOpensNothing(t *testing.T) {
	ctx := context.Background()
	st, ds := buildTestStore(t, 800, 6)

	forged := st.Manifest().Chunks[1][0]
	forged.File = "manifest.json"
	if _, err := st.ReadChunk(ctx, forged); err == nil || !strings.Contains(err.Error(), "is not the manifest's record") {
		t.Fatalf("a forged meta: err = %v", err)
	}
	forged = st.Manifest().Chunks[1][0]
	forged.Seq = len(st.Manifest().Chunks[1])
	if _, err := st.ReadChunk(ctx, forged); err == nil || !strings.Contains(err.Error(), "is not the manifest's record") {
		t.Fatalf("a meta past the manifest: err = %v", err)
	}
	forged = st.Manifest().Chunks[1][1]
	forged.Offset = 0
	if _, err := st.ReadChunk(ctx, forged); err == nil || !strings.Contains(err.Error(), "is not the manifest's record") {
		t.Fatalf("a meta over another chunk's extent: err = %v", err)
	}

	if _, _, err := st.MergeRegion(ctx, st.Bounds()); err != nil {
		t.Fatal(err)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "a whole-store merge", st.dir, st.Dims())
	}
	withBlockCache(t, st, 64<<20)
	cached := st.Manifest().Chunks[0][0]
	if _, err := st.ReadChunk(ctx, cached); err != nil {
		t.Fatal(err)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "Close", st.dir, 0)
	}
	want := fmt.Sprintf("chunkstore: store %s is closed", st.dir)
	if _, err := st.ReadChunk(ctx, cached); err == nil || err.Error() != want {
		t.Fatalf("a cached read after Close: err = %v, want %q", err, want)
	}
	st.SetBlockCache(nil)
	if _, _, err := st.MergeRegion(ctx, st.Bounds()); err == nil || err.Error() != want {
		t.Fatalf("a merge after Close: err = %v, want %q", err, want)
	}
	if _, err := st.FetchRows(ctx, []uint32{0, uint32(ds.Len() - 1)}); err == nil || err.Error() != want {
		t.Fatalf("a fetch after Close: err = %v, want %q", err, want)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "reads after Close", st.dir, 0)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
}

// TestGaugeUncountsWhatItCounted: the open-files gauge reads a store's D
// data files from Instrument on, reads 0 after Close, and a second Close
// does not take it below zero. A store closed before Instrument, and an
// empty store, never count.
func TestGaugeUncountsWhatItCounted(t *testing.T) {
	st, _ := buildTestStore(t, 500, 9)
	reg := obs.NewRegistry()
	gauge := reg.Gauge("uei_chunkstore_open_files")
	if _, err := st.ReadChunk(context.Background(), st.Manifest().Chunks[0][0]); err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	if gauge.Value() != float64(st.Dims()) {
		t.Fatalf("after Instrument the gauge reads %g, want the store's %d dimensions", gauge.Value(), st.Dims())
	}
	st.Instrument(obs.NewRegistry())
	for range 2 {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if gauge.Value() != 0 {
			t.Fatalf("after Close the gauge reads %g, want 0", gauge.Value())
		}
	}

	reopened, err := Open(st.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	reopened.Instrument(reg)
	empty, err := BuildEmpty(t.TempDir(), []string{"a", "b"}, vec.NewBox([]float64{0, 0}, []float64{1, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	empty.Instrument(reg)
	if gauge.Value() != 0 {
		t.Fatalf("a store closed before Instrument and an empty store: the gauge reads %g, want 0", gauge.Value())
	}
	if err := empty.Close(); err != nil || gauge.Value() != 0 {
		t.Fatalf("closing the empty store: err %v, gauge %g", err, gauge.Value())
	}
}

// TestDroppedStoreReleasesFiles: a store dropped without Close gives back
// its data files once it is collected.
func TestDroppedStoreReleasesFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	built, _ := buildTestStore(t, 500, 10)
	dir := built.dir
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	func() {
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.MergeRegion(context.Background(), st.Bounds()); err != nil {
			t.Fatal(err)
		}
		requireFilesUnder(t, "an open store", dir, st.Dims())
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(leakcheck.FilesUnder(dir)) > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	requireFilesUnder(t, "a collected store", dir, 0)
}
