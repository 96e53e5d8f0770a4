package chunkstore

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/obs"
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
// bytes than its file holds is refused at the chunk's first read, by the
// size check on the open handle, before a buffer of the claimed size
// exists — and the refused file is not kept open.
func TestReadRefusesManifestLargerThanFile(t *testing.T) {
	ctx := context.Background()
	st, _ := buildTestStore(t, 500, 4)
	meta := &st.manifest.Chunks[2][0]
	actual := meta.Bytes
	meta.Bytes = 256 << 20
	want := fmt.Sprintf("chunkstore: chunk %s is %d bytes, manifest says %d", meta.File, actual, meta.Bytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := st.ReadChunk(ctx, *meta)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a %d-byte claim allocated %d bytes", meta.Bytes, grew)
	}
	if st.files[2][0].Load() != nil {
		t.Fatal("the refused file was kept open")
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "a refused first read", st.dir, 0)
	}
}

// TestFirstReadRaceKeepsOneHandle: eight goroutines racing on a chunk's
// first read all read it, and the store is left holding one descriptor
// for it — for every chunk of the store in turn, each on a fresh open, so
// the race is run often enough to lose it. Run it under -race.
func TestFirstReadRaceKeepsOneHandle(t *testing.T) {
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
	for i, meta := range metas {
		st, err := Open(built.dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := st.ReadChunk(ctx, meta)
				if err == nil && !reflect.DeepEqual(got, wants[i]) {
					err = fmt.Errorf("read other entries than the first read")
				}
				errs[g] = err
			}()
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("%s, reader %d: %v", meta.File, g, err)
			}
		}
		requireFilesUnder(t, "eight racing first reads of "+meta.File, st.dir, 1)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadAfterCloseOpensNothing: Close releases every chunk file the
// store has read and zeroes the open-files gauge; a read after it fails
// naming the store — a block-cached chunk too — and opens nothing. A meta
// that is not the manifest's own record is refused the same way, before
// any file is opened by its name.
func TestReadAfterCloseOpensNothing(t *testing.T) {
	ctx := context.Background()
	st, ds := buildTestStore(t, 800, 6)
	reg := obs.NewRegistry()
	st.Instrument(reg)
	gauge := reg.Gauge("uei_chunkstore_open_files")

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
	if gauge.Value() != 0 {
		t.Fatalf("refused metas opened %g files", gauge.Value())
	}

	if _, _, err := st.MergeRegion(ctx, st.Bounds()); err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, dim := range st.Manifest().Chunks {
		chunks += len(dim)
	}
	if got := gauge.Value(); got != float64(chunks) {
		t.Fatalf("after a whole-store merge the gauge reads %g, want %d", got, chunks)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "a whole-store merge", st.dir, chunks)
	}
	withBlockCache(t, st, 64<<20)
	cached := st.Manifest().Chunks[0][0]
	if _, err := st.ReadChunk(ctx, cached); err != nil {
		t.Fatal(err)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if gauge.Value() != 0 {
		t.Fatalf("after Close the gauge reads %g", gauge.Value())
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

// readAll reads every chunk of st and fails unless each reads as want.
func readAll(t *testing.T, st *Store, want [][]Entry) {
	t.Helper()
	i := 0
	for _, chunks := range st.Manifest().Chunks {
		for _, meta := range chunks {
			got, err := st.ReadChunk(context.Background(), meta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s read other entries than an unbounded store", meta.File)
			}
			i++
		}
	}
}

// TestHeldFilesBounded: once the process holds maxHeldFiles chunk files, a
// first read reads through a file of its own and closes it. Every read
// returns what an unbounded store reads, the store keeps only the files
// the bound left room for, and Close gives that room back.
func TestHeldFilesBounded(t *testing.T) {
	built, _ := buildTestStore(t, 800, 8)
	var want [][]Entry
	for _, chunks := range built.Manifest().Chunks {
		for _, meta := range chunks {
			entries, err := built.ReadChunk(context.Background(), meta)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, entries)
		}
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) < 4 {
		t.Fatalf("the store has %d chunks; the test needs a few more than the bound", len(want))
	}

	st, err := Open(built.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	gauge := reg.Gauge("uei_chunkstore_open_files")
	before, bound := heldFiles.Load(), maxHeldFiles.Load()
	t.Cleanup(func() { maxHeldFiles.Store(bound) })
	maxHeldFiles.Store(before + 2)
	readAll(t, st, want)
	readAll(t, st, want)
	if got := heldFiles.Load() - before; got != 2 {
		t.Fatalf("the store holds %d chunk files, want the bound's 2", got)
	}
	if gauge.Value() != 2 {
		t.Fatalf("the gauge reads %g, want 2", gauge.Value())
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "reads past the bound", st.dir, 2)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if heldFiles.Load() != before || gauge.Value() != 0 {
		t.Fatalf("after Close: %d chunk files held (%d before), gauge %g", heldFiles.Load(), before, gauge.Value())
	}
}

// TestGaugeUncountsWhatItCounted: a handle opened before Instrument is not
// on the gauge, so Close does not take it off: the gauge never reads below
// zero.
func TestGaugeUncountsWhatItCounted(t *testing.T) {
	st, _ := buildTestStore(t, 500, 9)
	chunks := st.Manifest().Chunks[0]
	if _, err := st.ReadChunk(context.Background(), chunks[0]); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	gauge := reg.Gauge("uei_chunkstore_open_files")
	if _, err := st.ReadChunk(context.Background(), chunks[len(chunks)-1]); err != nil {
		t.Fatal(err)
	}
	if gauge.Value() != 1 {
		t.Fatalf("the gauge reads %g, want 1: the handle opened after Instrument", gauge.Value())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if gauge.Value() != 0 {
		t.Fatalf("after Close the gauge reads %g, want 0", gauge.Value())
	}
}

// TestDroppedStoreReleasesFiles: a store dropped without Close gives back
// its chunk files, and their room under the bound, once it is collected.
func TestDroppedStoreReleasesFiles(t *testing.T) {
	built, _ := buildTestStore(t, 500, 10)
	dir := built.dir
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	before := heldFiles.Load()
	func() {
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.MergeRegion(context.Background(), st.Bounds()); err != nil {
			t.Fatal(err)
		}
		if heldFiles.Load() <= before {
			t.Fatal("a whole-store merge holds no chunk file")
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for heldFiles.Load() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if heldFiles.Load() > before {
		t.Fatalf("a dropped store still holds %d chunk files", heldFiles.Load()-before)
	}
	if leakcheck.ProcFDs() {
		requireFilesUnder(t, "a collected store", dir, 0)
	}
}
