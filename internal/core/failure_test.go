package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
)

// TestCorruptedChunkSurfacesDuringRegionLoad injects on-disk corruption
// after the index is opened and verifies the error reaches the caller
// rather than producing silent garbage.
func TestCorruptedChunkSurfacesDuringRegionLoad(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 800, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	idx, err := Open(context.Background(), dir, Options{MemoryBudgetBytes: 1 << 20, SampleSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	// Corrupt every chunk so whichever cell is loaded first fails.
	part := filepath.Join(dir, "seg-000001")
	st, err := chunkstore.Open(part, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for d, chunks := range st.Manifest().Chunks {
		path := filepath.Join(part, fmt.Sprintf("d%02d.chk", d))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			data[c.Offset+c.Bytes/2] ^= 0xAA
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 60)
	if _, err := idx.EnsureRegion(context.Background(), model); err == nil {
		t.Fatal("region load over corrupted chunks should fail")
	}
}

// TestMissingChunkFileSurfaces deletes a dimension's data file before
// open: the open fails naming it.
func TestMissingChunkFileSurfaces(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 800, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "seg-000001", "d02.chk")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), dir, Options{MemoryBudgetBytes: 1 << 20, SampleSize: 20, Seed: 1}); err == nil || !strings.Contains(err.Error(), "d02.chk") {
		t.Fatalf("open over a missing data file: err = %v, want one naming d02.chk", err)
	}
}

// TestBuildRefusesDirtyDirectory guards the immutable-store contract.
func TestBuildRefusesDirtyDirectory(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 50, Seed: 1})
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 1024}); err == nil {
		t.Fatal("rebuild into a populated directory should fail")
	}
}

// TestOpenAfterRebuildRoundTrip exercises the full build→open→explore→
// reopen cycle on the same directory.
func TestOpenAfterRebuildRoundTrip(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1200, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		idx, err := Open(context.Background(), dir, Options{MemoryBudgetBytes: 1 << 20, SampleSize: 50, Seed: int64(round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := idx.InitExploration(context.Background()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		region := testRegion(t, ds)
		model := boundaryModel(t, ds, region, 80)
		if _, err := idx.EnsureRegion(context.Background(), model); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		idx.Close()
	}
}
