package core

import (
	"context"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/leakcheck"
)

// TestIndexCloseReleasesChunkFiles: a session over a flat, a sharded and a
// live store leaves its data files open — a view's Close does not close
// the stores it shares — and the index's Close releases every descriptor
// into the store directory, with no garbage collection in between.
func TestIndexCloseReleasesChunkFiles(t *testing.T) {
	if !leakcheck.ProcFDs() {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 80)
	for _, layout := range []struct {
		name string
		opts BuildOptions
	}{
		{"flat", BuildOptions{TargetChunkBytes: 2048}},
		{"S=4", BuildOptions{TargetChunkBytes: 2048, Shards: 4}},
		{"live", BuildOptions{TargetChunkBytes: 2048, LiveIngest: true}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			if err := Build(dir, ds, layout.opts); err != nil {
				t.Fatal(err)
			}
			idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20, SampleSize: 100, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			view, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, SampleSize: 100, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*Index{idx, view} {
				if err := x.InitExploration(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := x.EnsureRegion(ctx, model); err != nil {
					t.Fatal(err)
				}
				if _, err := x.ResultRetrieval(ctx, model, 0); err != nil {
					t.Fatal(err)
				}
			}
			view.Close()
			if len(leakcheck.FilesUnder(dir)) == 0 {
				t.Fatal("no data file is open, or a view's Close closed the stores it shares")
			}
			if _, err := idx.EnsureRegion(ctx, model); err != nil {
				t.Fatalf("the parent after its view's Close: %v", err)
			}
			idx.Close()
			if open := leakcheck.FilesUnder(dir); len(open) != 0 {
				t.Fatalf("after Close %d descriptors point into the store: %v", len(open), open)
			}
		})
	}
}
