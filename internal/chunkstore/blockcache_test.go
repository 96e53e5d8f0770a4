package chunkstore

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/vec"
)

// withBlockCache installs a fresh cache of the given capacity on the
// store and returns it.
func withBlockCache(t *testing.T, s *Store, capacity int64) *BlockCache {
	t.Helper()
	b, err := memcache.NewBudget(capacity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewBlockCache(b)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBlockCache(c)
	return c
}

// readChunkDisk is the owning disk read, bypassing any block cache, into
// storage of its own: what a block-cache miss keeps.
func (s *Store) readChunkDisk(ctx context.Context, meta ChunkMeta) (Postings, error) {
	return s.readChunkInto(ctx, meta, new(Postings))
}

// TestBlockCacheSingleFlightOneDiskRead is the single-flight stress
// contract: 64 goroutines all missing on the same cold chunk must produce
// exactly one disk read (asserted via the store's chunksRead counter),
// and every one of them must see the same decoded entries.
func TestBlockCacheSingleFlightOneDiskRead(t *testing.T) {
	st, _ := buildTestStore(t, 2000, 7)
	withBlockCache(t, st, 64<<20)
	meta := st.Manifest().Chunks[0][0]
	want, err := st.readChunkDisk(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	st.ResetIOStats()

	const goroutines = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]Entry, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = st.ReadChunk(context.Background(), meta)
		}(i)
	}
	close(start)
	wg.Wait()

	if _, chunks := st.IOStats(); chunks != 1 {
		t.Fatalf("chunksRead = %d, want exactly 1 for %d concurrent misses", chunks, goroutines)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want.Entries()) {
			t.Fatalf("goroutine %d decoded entries differ from uncached read", i)
		}
	}
	s := st.cache.Stats()
	if s.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", s.Misses)
	}
}

// TestBlockCacheWarmHitNoDiskRead verifies the warm path costs no I/O:
// after the first read, re-reading the same chunk moves neither the byte
// nor the chunk counter, returns the resident arrays themselves, and the
// cache charges them Postings.Bytes — 8 bytes a value and 4 a row id for a
// chunk of one-row postings, whose ends are the shared identity column,
// and 4 more a value for the "field" dimension's multi-row chunk, whose
// ends are its own.
func TestBlockCacheWarmHitNoDiskRead(t *testing.T) {
	st, _ := buildTestStore(t, 2000, 11)
	c := withBlockCache(t, st, 64<<20)
	ctx := context.Background()
	resident := int64(0)
	// The field dimension's first chunk may be its lowest value alone,
	// cut off by the wide gap after it; its next holds many.
	field := st.Manifest().Chunks[4]
	multiRow := field[0]
	for i := 1; multiRow.Entries == multiRow.RowRefs && i < len(field); i++ {
		multiRow = field[i]
	}
	for _, tc := range []struct {
		meta     ChunkMeta
		perEntry int
	}{
		{st.Manifest().Chunks[1][0], 8},
		{multiRow, 12},
	} {
		meta := tc.meta
		if oneRow := meta.Entries == meta.RowRefs; oneRow != (tc.perEntry == 8) {
			t.Fatalf("chunk %s holds %d row ids in %d postings: the wrong shape for this case", meta.File, meta.RowRefs, meta.Entries)
		}
		first, err := st.readChunkFor(ctx, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.ResetIOStats()
		second, err := st.readChunkFor(ctx, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bytes, chunks := st.IOStats(); bytes != 0 || chunks != 0 {
			t.Fatalf("%s: warm hit cost %d bytes / %d chunk reads, want 0/0", meta.File, bytes, chunks)
		}
		if !samePostings(first, second) {
			t.Fatalf("%s: warm hit returned arrays other than the resident ones", meta.File)
		}
		want := int64(tc.perEntry*meta.Entries + 4*meta.RowRefs)
		resident += want
		if got := c.Stats().ResidentBytes; first.Bytes() != want || got != resident {
			t.Fatalf("%s: resident chunks charged %d (Bytes %d), want %d (this chunk %d)", meta.File, got, first.Bytes(), resident, want)
		}
	}
}

// TestBlockCacheMergeParity proves results are byte-identical to the
// uncached path: MergeRegion over several boxes, cold and warm, must equal
// the uncached merge exactly.
func TestBlockCacheMergeParity(t *testing.T) {
	ctx := context.Background()
	boxes := []struct{ lo, hi float64 }{
		{0.1, 0.4},
		{0.3, 0.7},
		{0.0, 1.0},
	}
	plain, _ := buildTestStore(t, 3000, 13)
	cached, _ := buildTestStore(t, 3000, 13)
	withBlockCache(t, cached, 64<<20)

	for round := 0; round < 2; round++ { // round 1 hits the warm cache
		for bi, bx := range boxes {
			lo := make([]float64, plain.Dims())
			hi := make([]float64, plain.Dims())
			b := plain.Bounds()
			for d := range lo {
				w := b.Max[d] - b.Min[d]
				lo[d] = b.Min[d] + bx.lo*w
				hi[d] = b.Min[d] + bx.hi*w
			}
			box := vec.NewBox(lo, hi)
			wantRows, wantVisited, err := plain.MergeRegion(ctx, box)
			if err != nil {
				t.Fatal(err)
			}
			gotRows, gotVisited, err := cached.MergeRegion(ctx, box)
			if err != nil {
				t.Fatal(err)
			}
			if wantVisited != gotVisited {
				t.Fatalf("round=%d box=%d: visited %d != %d", round, bi, gotVisited, wantVisited)
			}
			if !reflect.DeepEqual(wantRows, gotRows) {
				t.Fatalf("round=%d box=%d: merged rows differ with cache", round, bi)
			}
		}
	}
	if s := cached.cache.Stats(); s.Hits == 0 {
		t.Fatalf("expected warm-round cache hits, got stats %+v", s)
	}
}

// TestBlockCacheEvictionUnderPressure keeps a tiny budget and checks the
// store still answers correctly while the cache continuously evicts.
func TestBlockCacheEvictionUnderPressure(t *testing.T) {
	st, _ := buildTestStore(t, 3000, 17)
	const capacity = 8 << 10 // far smaller than the decoded working set
	c := withBlockCache(t, st, capacity)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for d := 0; d < st.Dims(); d++ {
			for _, meta := range st.Manifest().Chunks[d] {
				entries, err := st.ReadChunk(ctx, meta)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != meta.Entries {
					t.Fatalf("chunk %s: %d entries, manifest says %d", meta.File, len(entries), meta.Entries)
				}
			}
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", capacity, s)
	}
	if s.ResidentBytes > capacity {
		t.Fatalf("resident %d exceeds capacity %d", s.ResidentBytes, capacity)
	}
}
