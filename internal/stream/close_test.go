package stream

import (
	"context"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/leakcheck"
)

// deletedFilesUnder lists the descriptors into dir whose file is deleted.
func deletedFilesUnder(dir string) []string {
	var out []string
	for _, fd := range leakcheck.FilesUnder(dir) {
		if strings.HasSuffix(fd, " (deleted)") {
			out = append(out, fd)
		}
	}
	return out
}

// TestSweptSegmentsReleaseChunkFiles: compacted-away segments a pinned
// snapshot still reads keep their data files open; releasing the last pin
// closes their stores before their directories go, so no descriptor is
// left on a deleted data file, and Close releases everything else.
func TestSweptSegmentsReleaseChunkFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	dir := t.TempDir()
	ds := testDataset(t, 200, 7)
	mustCreate(t, dir, ds, CreateOptions{})
	db := mustOpen(t, dir, testOptions())
	ctx := context.Background()
	var extra [][]float64
	for i := 0; i < 3; i++ {
		row := ds.Row(dataset.RowID(i))
		extra = append(extra, row)
		if _, err := db.Append([][]float64{row}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatch(t, allRows(t, pinned), ds, extra)
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkRowsMatch(t, allRows(t, pinned), ds, extra)
	if open := deletedFilesUnder(dir); len(open) != 0 {
		t.Fatalf("a pinned segment's files were deleted under it: %v", open)
	}
	pinned.Release()
	if got := segmentDirs(t, dir); len(got) != 1 {
		t.Fatalf("expected 1 segment dir after release, got %d: %v", len(got), got)
	}
	if open := deletedFilesUnder(dir); len(open) != 0 {
		t.Fatalf("after the sweep %d descriptors point at deleted data files: %v", len(open), open)
	}

	snap, err := db.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatch(t, allRows(t, snap), ds, extra)
	snap.Release()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if open := leakcheck.FilesUnder(dir); len(open) != 0 {
		t.Fatalf("after Close %d descriptors point into the store: %v", len(open), open)
	}
}
