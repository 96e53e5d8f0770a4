package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/pool"
)

func skyDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildSharded(t *testing.T, ds *dataset.Dataset, shards int) string {
	t.Helper()
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{Shards: shards, TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openCoordinator(t *testing.T, dir string, opts OpenOptions) *Coordinator {
	t.Helper()
	if opts.Pool == nil {
		p := pool.New(2)
		t.Cleanup(p.Close)
		opts.Pool = p
	}
	c, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Instrument(obs.NewRegistry())
	return c
}

// TestCoordinatorCloseReleasesFiles: Close releases every data file the
// parts of an opened build hold, and a second Close is harmless.
func TestCoordinatorCloseReleasesFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("open descriptors cannot be listed here")
	}
	dir := buildSharded(t, skyDataset(t, 600), 3)
	c, err := Open(context.Background(), dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(leakcheck.FilesUnder(dir)) == 0 {
		t.Fatal("an open build holds no data file; the check is vacuous")
	}
	c.Close()
	c.Close()
	if open := leakcheck.FilesUnder(dir); len(open) != 0 {
		t.Fatalf("files still open after Close: %v", open)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := skyDataset(t, 50)
	if err := Build(t.TempDir(), ds, BuildOptions{Shards: -1}); err == nil {
		t.Error("a negative shard count should be rejected")
	}
	// A one-shard build refuses a bad grid before it writes its part.
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{Shards: 1, SegmentsPerDim: -1}); err == nil {
		t.Error("a negative segment count should be rejected")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused build left %d entries", len(entries))
	}
	if err := Build(t.TempDir(), ds, BuildOptions{Shards: MaxShards + 1}); err == nil {
		t.Error("Shards above MaxShards should be rejected")
	}
	empty := dataset.New(ds.Schema(), 0)
	for _, shards := range []int{1, 2} {
		if err := Build(t.TempDir(), empty, BuildOptions{Shards: shards}); err == nil {
			t.Errorf("S = %d: empty dataset should be rejected", shards)
		}
	}
}

func TestOwnerOfDeterministic(t *testing.T) {
	coords := []int{3, 1, 4, 1, 5}
	want := OwnerOf(coords, 8)
	for i := 0; i < 10; i++ {
		if got := OwnerOf(coords, 8); got != want {
			t.Fatalf("OwnerOf not deterministic: %d then %d", want, got)
		}
	}
	if want < 0 || want >= 8 {
		t.Fatalf("owner %d out of range", want)
	}
}

// TestBuildOpenRoundTrip: at every shard count — past 256 too, where a
// build's one-byte row owners are shared by shards s and s+256 — every row
// lands in exactly one shard and every cell routes to its hashed owner.
func TestBuildOpenRoundTrip(t *testing.T) {
	ds := skyDataset(t, 600)
	for _, shards := range []int{2, 4, 8, 300} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			dir := buildSharded(t, ds, shards)
			c := openCoordinator(t, dir, OpenOptions{})
			if c.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", c.NumShards(), shards)
			}
			if c.Meta().RowCount != ds.Len() {
				t.Fatalf("RowCount = %d, want %d", c.Meta().RowCount, ds.Len())
			}
			if c.Meta().Dims() != ds.Dims() {
				t.Fatalf("Dims = %d, want %d", c.Meta().Dims(), ds.Dims())
			}
			// Every row lands in exactly one shard, idmaps are ascending and
			// partition [0, n).
			seen := make([]bool, ds.Len())
			total := 0
			for _, s := range c.shards {
				prev := -1
				if len(s.Parts) != 1 {
					t.Fatalf("shard %d has %d parts, want 1 (build-time layout)", s.ID, len(s.Parts))
				}
				for local := range s.Parts[0].RowCount() {
					id := s.Parts[0].GlobalID(uint32(local)) // an identity part has no IDMap
					if int(id) <= prev {
						t.Fatalf("shard %d idmap not ascending", s.ID)
					}
					prev = int(id)
					if seen[id] {
						t.Fatalf("row %d in two shards", id)
					}
					seen[id] = true
					total++
				}
			}
			if total != ds.Len() {
				t.Fatalf("shards hold %d rows, want %d", total, ds.Len())
			}
			// Every cell has exactly one owner, and it matches the hash.
			for cell := 0; cell < c.Meta().Grid.NumCells(); cell++ {
				coords, err := c.Meta().Grid.Coords(grid.CellID(cell))
				if err != nil {
					t.Fatal(err)
				}
				owner, err := c.OwnerOfCell(grid.CellID(cell))
				if err != nil {
					t.Fatal(err)
				}
				if OwnerOf(coords, shards) != owner {
					t.Fatalf("cell %d routed to shard %d but hashes elsewhere", cell, owner)
				}
			}
		})
	}
}

// TestLayoutMismatchSentinels: a directory of the retired flat layout (a
// chunk store at the top level, which a one-shard store keeps in
// seg-000001/) fails ReadManifest and Open with ErrFormatVersion naming
// the rebuild, not with ErrLayoutMismatch; a directory holding no store is
// a plain not-found, neither sentinel.
func TestLayoutMismatchSentinels(t *testing.T) {
	ds := skyDataset(t, 80)
	flat := t.TempDir()
	if _, err := chunkstore.Build(flat, ds, chunkstore.BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(flat); !errors.Is(err, chunkstore.ErrFormatVersion) || !strings.Contains(err.Error(), "uei-ingest") {
		t.Errorf("ReadManifest on a flat dir: err = %v, want ErrFormatVersion naming uei-ingest", err)
	}
	if _, err := Open(context.Background(), flat, OpenOptions{}); !errors.Is(err, chunkstore.ErrFormatVersion) {
		t.Errorf("Open on a flat dir: err = %v, want ErrFormatVersion", err)
	}
	_, err := ReadManifest(t.TempDir())
	if err == nil || errors.Is(err, chunkstore.ErrLayoutMismatch) || errors.Is(err, chunkstore.ErrFormatVersion) {
		t.Errorf("ReadManifest on an empty dir: err = %v, want a plain not-found", err)
	}
}

// TestIdentityPart: a one-shard build writes one identity part — no idmap
// file, its segment marked — that opens with a nil IDMap and reads as the
// sharded build of the same rows does. Without the mark the part needs
// its idmap and fails naming it; a marked part holding more rows than its
// epoch is refused, by the manifest reader and by OpenPart; and two
// marked segments in one epoch are refused.
func TestIdentityPart(t *testing.T) {
	ds := skyDataset(t, 300)
	dir := buildSharded(t, ds, 1)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []SegmentMeta{{ID: 1, Shard: 0, Rows: ds.Len(), Bytes: man.Segments[0].Bytes, Identity: true}}
	if man.Shards != 1 || !reflect.DeepEqual(man.Segments, want) {
		t.Fatalf("one-shard epoch: %d shards, segments %+v; want 1 shard, %+v", man.Shards, man.Segments, want)
	}
	part := filepath.Join(dir, SegmentDirName(1))
	if _, err := os.Stat(filepath.Join(part, "idmap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("an identity part has an idmap file (stat err %v)", err)
	}
	c := openCoordinator(t, dir, OpenOptions{})
	if p := c.shards[0].Parts[0]; p.IDMap != nil {
		t.Fatalf("an identity part opened with a %d-entry idmap", len(p.IDMap))
	}
	ids := []uint32{0, 5, 5, 123, 299}
	got, err := c.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := openCoordinator(t, buildSharded(t, ds, 3), OpenOptions{}).FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("identity part fetched %v, the S = 3 build %v", got, ref)
	}

	g, err := man.Grid()
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Segments[0]
	if _, err := OpenPart(part, g, seg, seg.Rows-1, "", OpenOptions{}); err == nil || !strings.Contains(err.Error(), "past the layout") {
		t.Errorf("OpenPart of a marked part past its layout: err = %v", err)
	}
	unmarked := seg
	unmarked.Identity = false
	if _, err := OpenPart(part, g, unmarked, man.FlushedRows, "", OpenOptions{}); err == nil || !strings.Contains(err.Error(), "idmap") {
		t.Errorf("OpenPart of an unmarked identity part: err = %v, want one naming its idmap", err)
	}

	rewrite := func(edit func(m *Manifest)) error {
		m := man.Clone()
		edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(context.Background(), dir, OpenOptions{})
		return err
	}
	if err := rewrite(func(m *Manifest) { m.Segments[0].Identity = false }); err == nil || !strings.Contains(err.Error(), "segment 1") || !strings.Contains(err.Error(), "idmap") {
		t.Errorf("Open with the identity mark removed: err = %v, want segment 1 naming its idmap", err)
	}
	if err := rewrite(func(m *Manifest) { m.FlushedRows-- }); err == nil || !strings.Contains(err.Error(), "flushed") {
		t.Errorf("Open of a marked segment past its epoch's rows: err = %v", err)
	}
	if err := rewrite(func(m *Manifest) {
		m.Segments = append(m.Segments, SegmentMeta{ID: 2, Rows: 0, Identity: true})
		m.NextSegmentID = 3
	}); err == nil || !strings.Contains(err.Error(), "identity") {
		t.Errorf("Open of an epoch with two identity segments: err = %v", err)
	}
}

func TestEmptyShardsAreValid(t *testing.T) {
	// A tiny dataset over a 5-dim grid with many shards leaves some shards
	// rowless; every shard dir must still open as a complete store.
	ds := skyDataset(t, 12)
	dir := buildSharded(t, ds, 8)
	c := openCoordinator(t, dir, OpenOptions{})
	emptyShards := 0
	for _, s := range c.shards {
		if s.RowCount() == 0 {
			emptyShards++
		}
	}
	if emptyShards == 0 {
		t.Skip("hash spread every row; no empty shard to exercise")
	}
	// Scoring and fetching still work across the empty shards.
	ids := make([]uint32, ds.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	rows, err := c.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != ds.Len() {
		t.Fatalf("fetched %d rows, want %d", len(rows), ds.Len())
	}
}

func TestFetchRowsMatchesFlat(t *testing.T) {
	ds := skyDataset(t, 300)
	flatDir := t.TempDir()
	flat, err := chunkstore.Build(flatDir, ds, chunkstore.BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	c := openCoordinator(t, buildSharded(t, ds, 4), OpenOptions{})

	ids := []uint32{0, 7, 7, 123, 299, 4, 250}
	want, err := flat.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("row %d: id %d, want %d", i, got[i].ID, want[i].ID)
		}
		for d := range got[i].Vals {
			if got[i].Vals[d] != want[i].Vals[d] {
				t.Fatalf("row %d dim %d: %v, want %v", i, d, got[i].Vals[d], want[i].Vals[d])
			}
		}
	}
	// Out-of-range ids error like the flat store.
	if _, err := c.FetchRows(context.Background(), []uint32{uint32(ds.Len())}); err == nil {
		t.Error("out-of-range fetch should fail")
	}
}

func TestLoadCellMatchesFlat(t *testing.T) {
	ds := skyDataset(t, 500)
	flatDir := t.TempDir()
	flat, err := chunkstore.Build(flatDir, ds, chunkstore.BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	c := openCoordinator(t, buildSharded(t, ds, 4), OpenOptions{})
	g := c.Meta().Grid
	fm, err := grid.BuildMapping(g, flat)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for cell := 0; cell < g.NumCells() && checked < 25; cell++ {
		id := grid.CellID(cell)
		box, err := g.CellBox(id)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := fm.Chunks(id)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := flat.MergeChunks(context.Background(), box, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			continue
		}
		checked++
		ids, vals, _, err := c.LoadCell(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(want) {
			t.Fatalf("cell %d: %d rows, want %d", cell, len(ids), len(want))
		}
		for i := range ids {
			if ids[i] != want[i].ID {
				t.Fatalf("cell %d row %d: id %d, want %d", cell, i, ids[i], want[i].ID)
			}
			for d := range vals[i] {
				if vals[i][d] != want[i].Vals[d] {
					t.Fatalf("cell %d row %d dim %d differs", cell, i, d)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-empty cells checked")
	}
}

// TestOpenRefusesIDPastStore: a part whose idmap names a row the store
// does not have — CRC-valid and strictly ascending, as SaveIDMap writes
// it — fails the open, naming the segment and the row, before any session
// can load or retrieve it.
func TestOpenRefusesIDPastStore(t *testing.T) {
	dir := buildSharded(t, skyDataset(t, 200), 2)
	openCoordinator(t, dir, OpenOptions{})
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, SegmentDirName(2))
	ids, err := LoadIDMap(shardDir, man.Segments[1].Rows)
	if err != nil {
		t.Fatal(err)
	}
	ids[len(ids)-1] = 200
	if err := SaveIDMap(shardDir, ids); err != nil {
		t.Fatal(err)
	}
	_, err = Open(context.Background(), dir, OpenOptions{})
	if err == nil || !strings.Contains(err.Error(), "segment 2") || !strings.Contains(err.Error(), "row 200") {
		t.Fatalf("open err = %v, want segment 2 refused for row 200", err)
	}
}

// TestRefusedOpenHoldsNoFiles: a part refused for an idmap naming a row
// past the layout — by OpenPart, or by Open after an earlier shard opened
// — leaves no descriptor on any file of the store.
func TestRefusedOpenHoldsNoFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	dir := buildSharded(t, skyDataset(t, 200), 2)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := man.Grid()
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Segments[1]
	shardDir := filepath.Join(dir, SegmentDirName(seg.ID))
	ids, err := LoadIDMap(shardDir, seg.Rows)
	if err != nil {
		t.Fatal(err)
	}
	ids[len(ids)-1] = uint32(man.FlushedRows)
	if err := SaveIDMap(shardDir, ids); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPart(shardDir, g, seg, man.FlushedRows, "", OpenOptions{}); err == nil || !strings.Contains(err.Error(), "past the layout") {
		t.Fatalf("OpenPart err = %v, want an idmap past the layout", err)
	}
	if open := leakcheck.FilesUnder(dir); len(open) != 0 {
		t.Fatalf("a refused OpenPart holds %v", open)
	}
	if _, err := Open(context.Background(), dir, OpenOptions{}); err == nil {
		t.Fatal("Open accepted an idmap past the layout")
	}
	if open := leakcheck.FilesUnder(dir); len(open) != 0 {
		t.Fatalf("a refused Open holds %v", open)
	}
}

// cellOwnedBy returns the lowest cell the given shard owns.
func cellOwnedBy(t *testing.T, c *Coordinator, shard int) grid.CellID {
	t.Helper()
	for cell, owner := range c.ownerByCell {
		if owner == shard {
			return grid.CellID(cell)
		}
	}
	t.Fatalf("shard %d owns no cell", shard)
	return 0
}

// TestScatterDegradesFailingShard: a failing shard fails what needs every
// shard's rows, degrades a load of one of its own cells, and touches
// nothing else — loads from other shards, scoring and ranking go on.
func TestScatterDegradesFailingShard(t *testing.T) {
	ds := skyDataset(t, 200)
	c := openCoordinator(t, buildSharded(t, ds, 4), OpenOptions{})
	reg := obs.NewRegistry()
	c.Instrument(reg)
	boom := errors.New("boom")
	c.SetFaultHook(func(_ context.Context, shard int, _ string) error {
		if shard == 2 {
			return boom
		}
		return nil
	})
	ctx := context.Background()
	// The scatter needs every shard: it surfaces ErrShardUnavailable.
	_, err := c.FetchRows(ctx, []uint32{0, 1, 2})
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, boom) {
		t.Errorf("fetch err = %v, want ErrShardUnavailable wrapping boom", err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 0 {
		t.Errorf("shard_degraded_total = %d after a failed fetch, want 0 (nothing degraded: the call failed)", got)
	}
	// A load routed to the failing shard is the one degradable failure.
	_, _, _, err = c.LoadCell(ctx, cellOwnedBy(t, c, 2))
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, boom) {
		t.Errorf("load err = %v, want ErrShardUnavailable wrapping boom", err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 1 {
		t.Errorf("shard_degraded_total = %d, want 1", got)
	}
	if got := reg.Counter(`shard_degraded_cause_total{cause="error"}`).Value(); got != 1 {
		t.Errorf(`shard_degraded_cause_total{cause="error"} = %d, want 1`, got)
	}
	if _, _, _, err := c.LoadCell(ctx, cellOwnedBy(t, c, 1)); err != nil {
		t.Errorf("load from a healthy shard: %v", err)
	}
	// With every shard failing, the symbolic index is still scored and
	// ranked: no shard takes part.
	c.SetFaultHook(func(context.Context, int, string) error { return boom })
	unc := make([]float64, c.Meta().Grid.NumCells())
	if _, err := c.ScoreAllPass(ctx, constModel{}, unc, ScorePass{}); err != nil {
		t.Errorf("scoring with every shard down: %v", err)
	}
	if top, _, err := c.MostUncertain(ctx, unc, 2, nil); err != nil || len(top) != 2 {
		t.Errorf("ranking with every shard down: top = %v, err = %v", top, err)
	}
}

func TestShardDeadlineSkipsSlowShard(t *testing.T) {
	ds := skyDataset(t, 200)
	c := openCoordinator(t, buildSharded(t, ds, 2), OpenOptions{Deadline: 20 * time.Millisecond})
	reg := obs.NewRegistry()
	c.Instrument(reg)
	c.SetFaultHook(func(ctx context.Context, shard int, _ string) error {
		if shard == 1 {
			<-ctx.Done() // stuck until the per-shard deadline fires
			return ctx.Err()
		}
		return nil
	})
	start := time.Now()
	_, _, _, err := c.LoadCell(context.Background(), cellOwnedBy(t, c, 1))
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("load err = %v, want ErrShardUnavailable wrapping the deadline", err)
	}
	if got := reg.Counter(`shard_degraded_cause_total{cause="deadline"}`).Value(); got != 1 {
		t.Errorf(`shard_degraded_cause_total{cause="deadline"} = %d, want 1`, got)
	}
	if _, _, _, err := c.LoadCell(context.Background(), cellOwnedBy(t, c, 0)); err != nil {
		t.Fatalf("load from the healthy shard: %v", err)
	}
	if _, err := c.FetchRows(context.Background(), []uint32{0, 1}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("fetch err = %v, want ErrShardUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the calls: %v", elapsed)
	}
}

func TestScatterCancellationLeaksNoGoroutines(t *testing.T) {
	ds := skyDataset(t, 200)
	c := openCoordinator(t, buildSharded(t, ds, 4), OpenOptions{})
	release := make(chan struct{})
	c.SetFaultHook(func(ctx context.Context, shard int, _ string) error {
		if shard != 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-release:
				return nil
			}
		}
		return nil
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		err := scatterGather(c, ctx, OpFetch,
			func(context.Context, *LocalBackend) (struct{}, error) { return struct{}{}, nil },
			func(int, struct{}) {})
		if err == nil {
			t.Fatal("cancelled scatter should fail")
		}
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("err = %v, want bare context.Canceled (cancellation must not classify as a shard failure)", err)
		}
		cancel()
	}
	close(release)
	// Shard goroutines write to a buffered channel, so they terminate on
	// their own; give them a moment and compare.
	leakcheck.WaitGoroutines(t, before+2, 5*time.Second)
}

// TestScoreAllWritesOnlyOwnedCells pins what a scoring pass may write —
// every slot when it succeeds, nothing when it fails — and that ranking with
// a skip list passes over exactly the cells the skipped shard owns.
func TestScoreAllWritesOnlyOwnedCells(t *testing.T) {
	ds := skyDataset(t, 400)
	c := openCoordinator(t, buildSharded(t, ds, 4), OpenOptions{})
	ctx := context.Background()
	n := c.Meta().Grid.NumCells()
	var X [][]float64
	var y []int
	for i := 0; i < 12; i++ {
		X = append(X, ds.CopyRow(dataset.RowID(i*30)))
		y = append(y, i%2)
	}
	model := learn.NewDWKNN(3, nil)
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	const sentinel = -99
	fill := func(v []float64) {
		for i := range v {
			v[i] = sentinel
		}
	}
	full := make([]float64, n)
	fill(full)
	if _, err := c.ScoreAllPass(ctx, model, full, ScorePass{}); err != nil {
		t.Fatal(err)
	}
	for cell := range full {
		if full[cell] == sentinel {
			t.Fatalf("cell %d never scored", cell)
		}
	}
	// A pass that fails publishes nothing.
	unc := make([]float64, n)
	fill(unc)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.ScoreAllPass(cancelled, model, unc, ScorePass{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v, want context.Canceled", err)
	}
	if _, err := c.ScoreAllPass(ctx, model, unc[:n-1], ScorePass{}); err == nil {
		t.Fatal("a vector shorter than the grid should fail")
	}
	for cell, u := range unc {
		if u != sentinel {
			t.Fatalf("cell %d written by a failed pass", cell)
		}
	}
	// Ranking with shard 3 skipped is the full ranking minus its cells.
	all, _, err := c.MostUncertain(ctx, full, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []grid.CellID
	for _, cell := range all {
		if c.ownerByCell[cell] != 3 {
			want = append(want, cell)
		}
	}
	if len(want) == len(all) {
		t.Fatal("shard 3 owns no cell; the skip is not exercised")
	}
	got, _, err := c.MostUncertain(ctx, full, n, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("skip ranking differs from the full ranking minus shard 3's cells")
	}
	if got, _, _ := c.MostUncertain(ctx, full, 2, []int{0, 1, 2, 3}); len(got) != 0 {
		t.Fatalf("every shard skipped: got %v, want none", got)
	}
}

// TestManifestValidation: Build commits epoch 1 of the multi-part layout,
// one segment per shard in shard order, holding every row; a corrupted
// idmap fails Open.
func TestManifestValidation(t *testing.T) {
	ds := skyDataset(t, 100)
	dir := buildSharded(t, ds, 2)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || m.NextSegmentID != 3 || len(m.Segments) != 2 {
		t.Fatalf("epoch %d, next segment %d, %d segments; want 1, 3, 2", m.Epoch, m.NextSegmentID, len(m.Segments))
	}
	sum := 0
	for i, seg := range m.Segments {
		if seg.ID != i+1 || seg.Shard != i {
			t.Errorf("segment %d is %d of shard %d, want %d of shard %d", i, seg.ID, seg.Shard, i+1, i)
		}
		sum += seg.Rows
	}
	if sum != ds.Len() || m.FlushedRows != ds.Len() {
		t.Errorf("segments hold %d rows, manifest says %d; want %d", sum, m.FlushedRows, ds.Len())
	}
	// Opening with a corrupted idmap fails loudly.
	bad := filepath.Join(dir, SegmentDirName(1), idMapFile)
	orig, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), orig...)
	corrupted[len(corrupted)-1] ^= 0xff
	if err := os.WriteFile(bad, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), dir, OpenOptions{}); err == nil {
		t.Error("corrupted idmap should fail Open")
	}
}

// constModel is a trivially fitted classifier whose posterior varies with
// the point — enough to exercise the scatter paths without a real fit.
type constModel struct{}

func (constModel) Fit([][]float64, []int) error { return nil }
func (constModel) Fitted() bool                 { return true }
func (constModel) PosteriorPositive(x []float64) (float64, error) {
	s := 0.0
	for _, v := range x {
		s += v
	}
	frac := s - float64(int64(s))
	if frac < 0 {
		frac = -frac
	}
	return 0.25 + frac/2, nil
}
