package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/shard"
)

func testDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// bigMemtable keeps size-triggered background flushes out of deterministic
// tests; visibility changes only at explicit Flush/Compact calls.
func testOptions() Options {
	return Options{memtableBytes: 1 << 30}
}

func mustCreate(t *testing.T, dir string, ds *dataset.Dataset, opts CreateOptions) {
	t.Helper()
	if err := Create(dir, ds, opts); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// allRows fetches every visible row of a snapshot.
func allRows(t *testing.T, s *Snapshot) []chunkstore.MergedRow {
	t.Helper()
	ids := make([]uint32, s.man.FlushedRows)
	for i := range ids {
		ids[i] = uint32(i)
	}
	rows, err := s.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func checkRowsMatch(t *testing.T, rows []chunkstore.MergedRow, ds *dataset.Dataset, extra [][]float64) {
	t.Helper()
	want := ds.Len() + len(extra)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		if r.ID != uint32(i) {
			t.Fatalf("row %d has id %d (results must be id-dense and sorted)", i, r.ID)
		}
		var ref []float64
		if i < ds.Len() {
			ref = ds.Row(dataset.RowID(i))
		} else {
			ref = extra[i-ds.Len()]
		}
		if !reflect.DeepEqual(r.Vals, ref) {
			t.Fatalf("row %d: got %v, want %v", i, r.Vals, ref)
		}
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, walDir), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := newWALWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][][]float64{
		{{1, 2}, {3, 4}},
		{{5, 6}},
		{{7, 8}, {9, 10}, {11, 12}},
	}
	first := uint32(0)
	for _, b := range batches {
		if err := w.append(first, b, 2); err != nil {
			t.Fatal(err)
		}
		first += uint32(len(b))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walDir, WALFileName(0))
	recs, err := readWALFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}
	first = 0
	for i, rec := range recs {
		if rec.firstID != first {
			t.Fatalf("record %d starts at %d, want %d", i, rec.firstID, first)
		}
		if !reflect.DeepEqual(rec.rows, batches[i]) {
			t.Fatalf("record %d rows: got %v, want %v", i, rec.rows, batches[i])
		}
		first += uint32(len(rec.rows))
	}

	// Truncating anywhere inside the last frame loses exactly that frame:
	// replay stops cleanly at the torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := 8 + 12 + 8*3*2
	for _, cut := range []int{1, 7, 12, lastFrame - 1} {
		torn := filepath.Join(dir, walDir, WALFileName(9))
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readWALFile(torn, 2)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(recs))
		}
	}

	// A corrupt byte mid-frame (CRC mismatch) also ends replay there.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-10] ^= 0xff
	bad := filepath.Join(dir, walDir, WALFileName(8))
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = readWALFile(bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("corrupt tail: replayed %d records, want 2", len(recs))
	}
}

func TestCreateOpenFlat(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 500, 1)
	mustCreate(t, dir, ds, CreateOptions{})
	if !IsLiveDir(dir) {
		t.Fatal("created directory is not detected as live")
	}
	db := mustOpen(t, dir, testOptions())
	if db.Epoch() != 1 {
		t.Fatalf("fresh store at epoch %d, want 1", db.Epoch())
	}
	if db.TotalRows() != ds.Len() || flushedRows(db) != ds.Len() {
		t.Fatalf("rows: total %d flushed %d, want %d", db.TotalRows(), flushedRows(db), ds.Len())
	}
	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkRowsMatch(t, allRows(t, snap), ds, nil)
}

// TestSnapshotMatchesStaticStore pins the core parity contract at the
// storage layer: every read a snapshot answers (cell loads, row fetches,
// marked scans) is byte-identical to a flat chunk store built from the
// same rows.
func TestSnapshotMatchesStaticStore(t *testing.T) {
	liveDir, staticDir := t.TempDir(), t.TempDir()
	ds := testDataset(t, 800, 2)
	mustCreate(t, liveDir, ds, CreateOptions{})
	st, err := chunkstore.Build(staticDir, ds, chunkstore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t, liveDir, testOptions())

	// Several flushes then a compaction, so the snapshot reads a merged
	// multi-part history rather than the pristine creation segment. The
	// appended rows reuse initial rows (shuffled order) so they stay
	// inside the pinned bounds.
	const nExtra = 200
	for i := 0; i < nExtra; i++ {
		if _, err := db.Append([][]float64{ds.Row(dataset.RowID((i * 37) % ds.Len()))}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%50 == 0 {
			if err := db.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	combined := dataset.New(ds.Schema(), ds.Len()+nExtra)
	for i := 0; i < ds.Len(); i++ {
		combined.Append(ds.Row(dataset.RowID(i)))
	}
	for i := 0; i < nExtra; i++ {
		combined.Append(ds.Row(dataset.RowID((i * 37) % ds.Len())))
	}
	staticDir2 := t.TempDir()
	st2, err := chunkstore.Build(staticDir2, combined, chunkstore.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = st

	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.man.FlushedRows != combined.Len() {
		t.Fatalf("snapshot sees %d rows, want %d", snap.man.FlushedRows, combined.Len())
	}
	g := db.Grid()
	ctx := context.Background()
	m2, err := grid.BuildMapping(g, st2)
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < g.NumCells(); cell++ {
		box, err := g.CellBox(grid.CellID(cell))
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := m2.Chunks(grid.CellID(cell))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := st2.MergeChunks(ctx, box, chunks)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := shard.MergePartsCell(ctx, snap.parts(), box, grid.CellID(cell))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cell %d: snapshot load diverges from static store (%d vs %d rows)", cell, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].Vals, want[i].Vals) {
				t.Fatalf("cell %d row %d: snapshot %v/%v, static %v/%v", cell, i, got[i].ID, got[i].Vals, want[i].ID, want[i].Vals)
			}
		}
	}
}

// storeFiles reads every file under dir into a map keyed by its path
// relative to dir; a directory maps to nil.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || d.IsDir() {
			files[rel] = nil
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestShardAndSegmentAreOnePart: at S = 3 over one dataset, shard.Build
// and Create write the same files — CURRENT, the epoch manifest, and per
// segment its data files, chunk manifest and idmap — byte for byte; the
// live store adds only its empty wal/ directory.
func TestShardAndSegmentAreOnePart(t *testing.T) {
	ds := testDataset(t, 3000, 5)
	shardedDir, liveDir := t.TempDir(), t.TempDir()
	if err := shard.Build(shardedDir, ds, shard.BuildOptions{Shards: 3, TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, liveDir, ds, CreateOptions{Shards: 3, TargetChunkBytes: 2048})
	want, got := storeFiles(t, shardedDir), storeFiles(t, liveDir)
	if wal, ok := got[walDir]; !ok || wal != nil {
		t.Fatalf("the live store has no %s/ directory", walDir)
	}
	delete(got, walDir)
	if len(got) != len(want) {
		t.Errorf("the live store holds %d entries besides %s/, the static one %d", len(got), walDir, len(want))
	}
	for name, data := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, data) {
			t.Errorf("%s differs between the static and the live store", name)
		}
	}
	man, err := shard.ReadManifest(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, seg := range man.Segments {
		rows += seg.Rows
	}
	if len(man.Segments) != 3 || rows != ds.Len() {
		t.Fatalf("%d segments holding %d rows, want 3 holding %d", len(man.Segments), rows, ds.Len())
	}
}

// TestOpenRefusesStaticStore: a multi-part store without wal/ is static.
// Open refuses it with ErrLayoutMismatch and leaves every file as it was;
// Inspect reads it as a store with no WAL.
func TestOpenRefusesStaticStore(t *testing.T) {
	ds := testDataset(t, 600, 3)
	dir := t.TempDir()
	if err := shard.Build(dir, ds, shard.BuildOptions{Shards: 2, TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	before := storeFiles(t, dir)
	if IsLiveDir(dir) {
		t.Fatal("a static build is detected as live")
	}
	if db, err := Open(dir, testOptions()); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open on a static store: err = %v, want ErrLayoutMismatch", err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALFiles != 0 || info.WALRows != 0 || info.HighWaterID != uint32(ds.Len()-1) {
		t.Fatalf("Inspect on a static store: %d WAL files, %d WAL rows, high water %d", info.WALFiles, info.WALRows, info.HighWaterID)
	}
	if after := storeFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("opening and inspecting a static store changed its files")
	}
}

// TestReadManifestRefusesBadGeometry: Open reads a live store's epoch
// through the geometry check, so a manifest with a shard count past
// shard.MaxShards, a repeated or empty column name, or a missing bound
// fails Open — naming the fault — before a part is opened, and Open
// changes no file of the store it refuses.
func TestReadManifestRefusesBadGeometry(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, testDataset(t, 400, 8), CreateOptions{Shards: 2, TargetChunkBytes: 2048})
	good, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		edit       func(m *shard.Manifest)
	}{
		{"shards-past-max", "want 1..1024", func(m *shard.Manifest) { m.Shards = 1 << 40 }},
		{"duplicate-column", "duplicate column", func(m *shard.Manifest) { m.Columns[1] = m.Columns[0] }},
		{"empty-column", "empty column", func(m *shard.Manifest) { m.Columns[0] = "" }},
		{"bound-missing", "bounds disagree", func(m *shard.Manifest) { m.MinValues = m.MinValues[:1] }},
	}
	for _, c := range cases {
		m := good.Clone()
		c.edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shard.ManifestFileName(m.Epoch)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, dir)
		if db, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), c.want) {
			if err == nil {
				db.Close()
			}
			t.Errorf("%s: Open err = %v, want one naming %q", c.name, err, c.want)
		}
		if after := storeFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused Open changed the store's files", c.name)
		}
	}
}

// writeGappedWAL writes a log generation seq into the live store under dir
// whose one record starts a row past the store's flushed rows: the gap
// Open's replay refuses.
func writeGappedWAL(t *testing.T, dir string, seq int) {
	t.Helper()
	man, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(man.Columns))
	copy(row, man.MinValues)
	frame := appendWALFrame(nil, uint32(man.FlushedRows)+1, [][]float64{row}, len(row))
	if err := os.WriteFile(filepath.Join(dir, walDir, WALFileName(seq)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWALGapClosesSegments: a WAL generation with a gap fails Open,
// naming the generation, and the segment stores Open had already opened
// are closed; Inspect refuses the same generation.
func TestOpenWALGapClosesSegments(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, testDataset(t, 600, 4), CreateOptions{Shards: 2, TargetChunkBytes: 2048})
	writeGappedWAL(t, dir, 3)
	db, err := Open(dir, testOptions())
	if err == nil {
		db.Close()
		t.Fatal("Open replayed a log with a gap")
	}
	if !strings.Contains(err.Error(), "wal 3") || !strings.Contains(err.Error(), "gap") {
		t.Errorf("Open err = %v, want one naming wal 3 and the gap", err)
	}
	if leakcheck.ProcFDs() {
		if open := leakcheck.FilesUnder(dir); len(open) != 0 {
			t.Errorf("a refused Open holds %v", open)
		}
	}
	if _, err := Inspect(dir); err == nil || !strings.Contains(err.Error(), "wal 3") || !strings.Contains(err.Error(), "gap") {
		t.Errorf("Inspect err = %v, want one naming wal 3 and the gap", err)
	}
}

// TestShardOpenReadsLiveEpoch: shard.Open over a live store holding
// several segments per shard reads, read-only, the rows the store's
// snapshot of the same epoch reads.
func TestShardOpenReadsLiveEpoch(t *testing.T) {
	ds := testDataset(t, 800, 6)
	dir := t.TempDir()
	mustCreate(t, dir, ds, CreateOptions{Shards: 2, TargetChunkBytes: 2048})
	db := mustOpen(t, dir, testOptions())
	ctx := context.Background()
	for batch := 0; batch < 3; batch++ {
		rows := make([][]float64, 40)
		for i := range rows {
			rows[i] = ds.CopyRow(dataset.RowID(batch*40 + i))
		}
		if _, err := db.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	c, err := shard.Open(ctx, dir, shard.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sh := range snap.Shards() {
		if len(sh.Parts) < 2 {
			t.Fatalf("shard %d holds %d parts, want the several segments the flushes wrote", sh.ID, len(sh.Parts))
		}
	}
	if c.Meta().RowCount != snap.man.FlushedRows {
		t.Fatalf("shard.Open reads %d rows, the snapshot %d", c.Meta().RowCount, snap.man.FlushedRows)
	}
	ids := make([]uint32, snap.man.FlushedRows)
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := c.FetchRows(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := allRows(t, snap); !reflect.DeepEqual(got, want) {
		t.Fatal("shard.Open reads other rows than the snapshot")
	}
}

// TestOpenRefusesIDPastFlushedRows: a segment whose idmap names a row at or
// past the manifest's FlushedRows — CRC-valid and strictly ascending, as
// shard.SaveIDMap writes it — fails the open, naming the segment and the
// row.
func TestOpenRefusesIDPastFlushedRows(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, testDataset(t, 600, 9), CreateOptions{Shards: 2, TargetChunkBytes: 2048})
	man, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Segments[len(man.Segments)-1]
	segDir := filepath.Join(dir, shard.SegmentDirName(seg.ID))
	ids, err := shard.LoadIDMap(segDir)
	if err != nil {
		t.Fatal(err)
	}
	ids[len(ids)-1] = uint32(man.FlushedRows)
	if err := shard.SaveIDMap(segDir, ids); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, testOptions())
	if err == nil {
		db.Close()
		t.Fatal("a segment naming a row past the flushed rows opened")
	}
	for _, want := range []string{fmt.Sprintf("segment %d", seg.ID), fmt.Sprintf("row %d", man.FlushedRows)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("open err = %v, want one naming %q", err, want)
		}
	}
}

func TestAppendFlushVisibilityMVCC(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 300, 4)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())

	old, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()

	extra := [][]float64{ds.Row(0), ds.Row(1), ds.Row(2)}
	firstID, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if firstID != uint32(ds.Len()) {
		t.Fatalf("append got first id %d, want %d", firstID, ds.Len())
	}
	// Durable but not visible: row counts split.
	if db.TotalRows() != ds.Len()+3 || flushedRows(db) != ds.Len() {
		t.Fatalf("total %d flushed %d", db.TotalRows(), flushedRows(db))
	}
	if old.man.FlushedRows != ds.Len() {
		t.Fatalf("held snapshot sees %d rows before flush", old.man.FlushedRows)
	}
	if err := db.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 2 {
		t.Fatalf("epoch %d after flush, want 2", db.Epoch())
	}
	// The held snapshot is immutable; a fresh one sees the flushed rows.
	if old.man.FlushedRows != ds.Len() {
		t.Fatalf("held snapshot advanced to %d rows", old.man.FlushedRows)
	}
	checkRowsMatch(t, allRows(t, old), ds, nil)
	fresh, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if fresh.Epoch() != 2 {
		t.Fatalf("fresh snapshot at epoch %d, want 2", fresh.Epoch())
	}
	checkRowsMatch(t, allRows(t, fresh), ds, extra)

	// Out-of-bounds appends are rejected: live grids never regrow. A NaN is
	// inside no domain, on every architecture.
	for _, v := range []float64{db.grid.Bounds().Max[0] + 1, math.NaN(), math.Copysign(math.NaN(), -1)} {
		bad := append([]float64(nil), db.grid.Bounds().Min...)
		bad[0] = v
		if _, err := db.Append([][]float64{bad}); !errors.Is(err, ErrOutOfBounds) {
			t.Fatalf("append of a row with coordinate %v: got %v, want ErrOutOfBounds", v, err)
		}
	}
}

// TestFlushIntervalShowsTrickleAppend is the evidence for FlushInterval:
// one appended row, far below memtableBytes, becomes a new epoch by the
// timer alone when the interval is set, and stays durable-but-invisible
// over the same wait when it is 0 (only an explicit Flush shows it).
func TestFlushIntervalShowsTrickleAppend(t *testing.T) {
	ds := testDataset(t, 300, 4)
	const interval = 5 * time.Millisecond
	open := func(flushInterval time.Duration) *DB {
		dir := t.TempDir()
		mustCreate(t, dir, ds, CreateOptions{})
		opts := testOptions()
		opts.FlushInterval = flushInterval
		db := mustOpen(t, dir, opts)
		if _, err := db.Append([][]float64{ds.Row(0)}); err != nil {
			t.Fatal(err)
		}
		return db
	}

	timed := open(interval)
	start := time.Now()
	for timed.Epoch() == 1 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("FlushInterval %v: the appended row never reached a new epoch", interval)
		}
		time.Sleep(interval)
	}
	took := time.Since(start)
	snap, err := timed.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.man.FlushedRows != ds.Len()+1 || flushedRows(timed) != ds.Len()+1 {
		t.Fatalf("timer flush shows %d rows (%d flushed), want %d", snap.man.FlushedRows, flushedRows(timed), ds.Len()+1)
	}

	untimed := open(0)
	time.Sleep(took + 20*interval)
	if untimed.Epoch() != 1 || flushedRows(untimed) != ds.Len() || untimed.TotalRows() != ds.Len()+1 {
		t.Fatalf("FlushInterval 0: epoch %d, %d of %d rows flushed after %v without a Flush call",
			untimed.Epoch(), flushedRows(untimed), untimed.TotalRows(), took+20*interval)
	}
	if err := untimed.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if untimed.Epoch() != 2 || flushedRows(untimed) != ds.Len()+1 {
		t.Fatalf("explicit Flush: epoch %d, %d rows flushed", untimed.Epoch(), flushedRows(untimed))
	}
}

func TestCompactionReclaimsUnpinnedSegments(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 200, 5)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := db.Append([][]float64{ds.Row(dataset.RowID(i))}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := db.Acquire() // pins the 5-segment epoch
	if err != nil {
		t.Fatal(err)
	}
	preDirs := segmentDirs(t, dir)
	if len(preDirs) != 5 {
		t.Fatalf("expected 5 segment dirs before compaction, got %d", len(preDirs))
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot holds the old segments on disk.
	if got := segmentDirs(t, dir); len(got) != 6 {
		t.Fatalf("expected 6 segment dirs while pinned (5 old + 1 merged), got %d", len(got))
	}
	checkRowsMatch(t, allRows(t, pinned), ds, [][]float64{ds.Row(0), ds.Row(1), ds.Row(2), ds.Row(3)})
	pinned.Release()
	if got := segmentDirs(t, dir); len(got) != 1 {
		t.Fatalf("expected 1 segment dir after release, got %d: %v", len(got), got)
	}
	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkRowsMatch(t, allRows(t, snap), ds, [][]float64{ds.Row(0), ds.Row(1), ds.Row(2), ds.Row(3)})
}

func segmentDirs(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// unreferencedSegmentDirs lists the seg-* directories under dir that the
// manifest CURRENT names does not reference.
func unreferencedSegmentDirs(t *testing.T, dir string) []string {
	t.Helper()
	man, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		live[shard.SegmentDirName(s.ID)] = true
	}
	var out []string
	for _, d := range segmentDirs(t, dir) {
		if !live[filepath.Base(d)] {
			out = append(out, d)
		}
	}
	return out
}

// TestCrashRecovery kills a flush between segment build and manifest
// commit, then reopens: the acked rows must replay from the WAL, the
// orphan segment directories must vanish, and a retried flush must land
// every row exactly once.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 300, 6)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())
	ctx := context.Background()

	extra := [][]float64{ds.Row(5), ds.Row(6), ds.Row(7)}
	if _, err := db.Append(extra); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected crash")
	db.SetFailpoint(func(stage string) error {
		if stage == "flush-before-commit" {
			return boom
		}
		return nil
	})
	if err := db.Flush(ctx); !errors.Is(err, boom) {
		t.Fatalf("flush with failpoint: got %v, want injected crash", err)
	}
	// The aborted flush left built-but-uncommitted segment dirs behind.
	// The commit never advanced NextSegmentID, so the flush after recovery
	// builds directories of the same names: tag the debris to tell it from
	// a rebuild.
	orphans := unreferencedSegmentDirs(t, dir)
	if len(orphans) == 0 {
		t.Fatalf("expected orphan segment dirs after aborted flush, got %v", segmentDirs(t, dir))
	}
	for _, o := range orphans {
		if err := os.WriteFile(filepath.Join(o, "debris"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db.Close() // simulate process death (Close never flushes)

	// Open removes the orphans, replays the WAL, freezes the replayed rows
	// and wakes the flusher — which may have committed them as the next
	// epoch before the lines below run. What is asserted here holds either
	// way; the epoch and the directory set are checked once Flush has
	// joined that background flush.
	db2 := mustOpen(t, dir, testOptions())
	if db2.TotalRows() != ds.Len()+3 {
		t.Fatalf("reopened with %d acked rows, want %d (WAL lost rows)", db2.TotalRows(), ds.Len()+3)
	}
	for _, o := range orphans {
		if _, err := os.Stat(filepath.Join(o, "debris")); err == nil {
			t.Fatalf("orphan segment %s survived reopen", filepath.Base(o))
		}
	}
	if err := db2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if db2.Epoch() != 2 {
		t.Fatalf("epoch %d after the retried flush, want 2 (the aborted commit never happened, the retry commits once)", db2.Epoch())
	}
	if got := unreferencedSegmentDirs(t, dir); len(got) != 0 {
		t.Fatalf("segment dirs the committed manifest does not reference: %v", got)
	}
	snap, err := db2.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkRowsMatch(t, allRows(t, snap), ds, extra)

	// Idempotent reopen: everything flushed, WAL drained.
	db2.Close()
	db3 := mustOpen(t, dir, testOptions())
	if db3.TotalRows() != ds.Len()+3 || flushedRows(db3) != ds.Len()+3 {
		t.Fatalf("third open: total %d flushed %d, want both %d", db3.TotalRows(), flushedRows(db3), ds.Len()+3)
	}
}

// TestZeroRowSegments covers the BuildEmpty round trip through the
// manifest: a sharded creation where one shard owns no rows writes a
// zero-row segment that must load, never contribute phantom rows, and
// compact away.
func TestZeroRowSegments(t *testing.T) {
	dir := t.TempDir()
	// Every row at the same point: exactly one cell is populated, so with
	// S=2 one shard is guaranteed rowless.
	schema, err := dataset.NewSchema("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(schema, 64)
	for i := 0; i < 64; i++ {
		if _, err := ds.Append([]float64{float64(i % 7), float64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(t, dir, ds, CreateOptions{Shards: 2, SegmentsPerDim: 1})
	db := mustOpen(t, dir, testOptions())
	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	shards := snap.Shards()
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	var zero, full int
	for _, sh := range shards {
		if sh.RowCount() == 0 {
			zero++
			if len(sh.Parts) != 1 {
				t.Fatalf("rowless shard has %d parts, want 1 (the BuildEmpty segment)", len(sh.Parts))
			}
		} else {
			full++
		}
	}
	if zero != 1 || full != 1 {
		t.Fatalf("want one rowless and one full shard, got %d/%d", zero, full)
	}
	// No phantom rows in cell reconstruction or fetches.
	box, err := db.Grid().CellBox(0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := shard.MergePartsCell(context.Background(), snap.parts(), box, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ds.Len() {
		t.Fatalf("cell 0 reconstructs %d rows, want %d", len(got), ds.Len())
	}
	checkRowsMatch(t, allRows(t, snap), ds, nil)
	snap.Release()

	// Compaction drops the zero-row segment outright.
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap2, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	if n := len(snap2.man.Segments); n != 1 {
		t.Fatalf("after compaction %d segments remain, want 1", n)
	}
	checkRowsMatch(t, allRows(t, snap2), ds, nil)
}

func TestShardedFlushRoutesByCellOwner(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 400, 7)
	mustCreate(t, dir, ds, CreateOptions{Shards: 2})
	db := mustOpen(t, dir, testOptions())
	ctx := context.Background()
	const nExtra = 100
	for i := 0; i < nExtra; i++ {
		if _, err := db.Append([][]float64{ds.Row(dataset.RowID((i * 13) % ds.Len()))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	shards := snap.Shards()
	// Every flushed row must sit in the shard that owns its grid cell —
	// the same assignment the coordinator routes reads by.
	owners, err := shard.CellOwners(db.Grid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for si, sh := range shards {
		for _, part := range sh.Parts {
			rows, err := shard.FetchPartsRows(ctx, []shard.Part{part}, part.IDMap)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				cell, err := db.Grid().CellOf(r.Vals)
				if err != nil {
					t.Fatal(err)
				}
				if owners[cell] != si {
					t.Fatalf("row %d in shard %d but cell %d is owned by %d", r.ID, si, cell, owners[cell])
				}
				total++
			}
		}
	}
	if total != ds.Len()+nExtra {
		t.Fatalf("shards hold %d rows, want %d", total, ds.Len()+nExtra)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 150, 9)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())
	if _, err := db.Append([][]float64{ds.Row(0), ds.Row(1)}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Epoch != 1 {
		t.Fatalf("inspect epoch %d, want 1", info.Manifest.Epoch)
	}
	if info.WALRows != 2 {
		t.Fatalf("inspect sees %d WAL rows, want 2", info.WALRows)
	}
	if info.HighWaterID != uint32(ds.Len())+1 {
		t.Fatalf("high-water id %d, want %d", info.HighWaterID, ds.Len()+1)
	}
	if info.WALBytes == 0 || info.WALFiles == 0 {
		t.Fatal("inspect reports empty WAL despite pending rows")
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 100, 10)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if _, err := db.Append([][]float64{ds.Row(dataset.RowID(i % ds.Len()))}); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				panic(err)
			}
		}
	}()
	if _, err := db.Acquire(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db.Close()
	<-done
	if _, err := db.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: got %v, want ErrClosed", err)
	}
}

// flushedRows counts the read-visible rows of db's current epoch.
func flushedRows(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.man.FlushedRows
}
