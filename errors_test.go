package uei_test

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei"
	"github.com/uei-db/uei/internal/chunkstore"
)

// buildSmallStore builds a small store and returns its directory.
func buildSmallStore(t *testing.T, n int) (string, *uei.Dataset) {
	t.Helper()
	ds, err := uei.GenerateSky(uei.SkyConfig{N: n, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := uei.Build(context.Background(), dir, ds, uei.BuildOptions{TargetChunkBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// TestErrClosedRoundTrip: every index operation after Close must satisfy
// errors.Is(err, uei.ErrClosed) across the facade boundary.
func TestErrClosedRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir, ds := buildSmallStore(t, 500)
	idx, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	idx.Close() // idempotent through the facade too

	if err := idx.InitExploration(ctx); !errors.Is(err, uei.ErrClosed) {
		t.Errorf("InitExploration after Close: want ErrClosed, got %v", err)
	}
	model := uei.NewDWKNN(5, nil)
	if err := idx.UpdateUncertainty(ctx, model); !errors.Is(err, uei.ErrClosed) {
		t.Errorf("UpdateUncertainty after Close: want ErrClosed, got %v", err)
	}
	if _, err := idx.EnsureRegion(ctx, model); !errors.Is(err, uei.ErrClosed) {
		t.Errorf("EnsureRegion after Close: want ErrClosed, got %v", err)
	}
}

// TestErrNotFittedRoundTrip: selection before scoring and prediction before
// Fit both surface uei.ErrNotFitted.
func TestErrNotFittedRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir, ds := buildSmallStore(t, 500)
	idx, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	// MostUncertainCells before any UpdateUncertainty: scores are stale.
	if _, err := idx.MostUncertainCells(1); !errors.Is(err, uei.ErrNotFitted) {
		t.Errorf("MostUncertainCells before scoring: want ErrNotFitted, got %v", err)
	}
	// An unfitted classifier rejects prediction with the same sentinel.
	if _, err := uei.NewDWKNN(5, nil).PosteriorPositive([]float64{0, 0, 0, 0, 0}); !errors.Is(err, uei.ErrNotFitted) {
		t.Errorf("unfitted PosteriorPositive: want ErrNotFitted, got %v", err)
	}
}

// TestErrBudgetExceededRoundTrip: a memory budget too small for even one
// sample tuple fails InitExploration with uei.ErrBudgetExceeded.
func TestErrBudgetExceededRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir, _ := buildSmallStore(t, 200)
	idx, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.InitExploration(ctx); !errors.Is(err, uei.ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestErrNoCandidatesRoundTrip: when the target region covers the whole
// domain every label comes back positive, the engine keeps soliciting until
// the pool runs dry, and Run fails with uei.ErrNoCandidates.
func TestErrNoCandidatesRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds, err := uei.GenerateSky(uei.SkyConfig{N: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := uei.CreateTable(ctx, t.TempDir(), ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	provider, err := uei.NewDBMSProvider(tb)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	widths := bounds.Widths()
	center := make([]float64, len(widths))
	for i, w := range widths {
		center[i] = bounds.Min[i] + w/2
		widths[i] = 10 * w // region swallows the whole domain
	}
	region, err := uei.NewRegion(center, widths)
	if err != nil {
		t.Fatal(err)
	}
	user, err := uei.NewOracle(ds, region)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := uei.NewSession(uei.SessionConfig{
		MaxLabels:        100,
		EstimatorFactory: func() uei.Classifier { return uei.NewDWKNN(3, nil) },
		Strategy:         uei.LeastConfidence{},
		Seed:             9,
	}, provider, uei.OracleLabeler{O: user})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx); !errors.Is(err, uei.ErrNoCandidates) {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

// hiddenDWKNN is a DWKNN behind another type: a classifier, but not the
// *DWKNN the index scores.
type hiddenDWKNN struct{ uei.Classifier }

// TestErrUnsupportedModelRoundTrip: a UEI session whose estimator is not a
// *DWKNN fails its first scored step with uei.ErrUnsupportedModel, having
// proposed nothing but bootstrap draws before it.
func TestErrUnsupportedModelRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir, ds := buildSmallStore(t, 3000)
	idx, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	provider, err := uei.NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	region, err := uei.FindRegion(ds, 0.05, 0.5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	user, err := uei.NewOracle(ds, region)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := uei.NewSession(uei.SessionConfig{
		MaxLabels:        20,
		EstimatorFactory: func() uei.Classifier { return hiddenDWKNN{uei.NewDWKNN(5, nil)} },
		Strategy:         uei.LeastConfidence{},
		Seed:             3,
		SeedWithPositive: true,
	}, provider, uei.OracleLabeler{O: user})
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := sess.Propose(ctx)
		if err != nil {
			if !errors.Is(err, uei.ErrUnsupportedModel) {
				t.Fatalf("want ErrUnsupportedModel, got %v", err)
			}
			return
		}
		if !p.Bootstrap {
			t.Fatalf("proposed #%d (score %v) under a model the index does not score", p.ID, p.Score)
		}
		if _, err := sess.Resolve(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestErrLayoutMismatchRoundTrip: opening a store with the wrong layout
// expectation surfaces uei.ErrLayoutMismatch across the facade boundary.
func TestErrLayoutMismatchRoundTrip(t *testing.T) {
	ctx := context.Background()
	flatDir, ds := buildSmallStore(t, 500)
	shardedDir := t.TempDir()
	if err := uei.Build(ctx, shardedDir, ds, uei.BuildOptions{TargetChunkBytes: 4096, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	opts := uei.Options{MemoryBudgetBytes: ds.SizeBytes()}

	opts.Shards = 1
	if _, err := uei.Open(ctx, shardedDir, opts); !errors.Is(err, uei.ErrLayoutMismatch) {
		t.Errorf("sharded dir with Shards 1: want ErrLayoutMismatch, got %v", err)
	}
	opts.Shards = 2
	if _, err := uei.Open(ctx, flatDir, opts); !errors.Is(err, uei.ErrLayoutMismatch) {
		t.Errorf("one-shard dir with Shards 2: want ErrLayoutMismatch, got %v", err)
	}
	opts.ShardDeadline = time.Second
	idx, err := uei.Open(ctx, shardedDir, opts)
	if err != nil {
		t.Fatalf("matching layout: %v", err)
	}
	idx.Close()
}

// TestOwnerOfCellLayoutMismatch: asking a sharded coordinator about a
// cell id outside its grid surfaces the facade's ErrLayoutMismatch
// sentinel (wrapped with the offending cell id), not a bare formatted
// error — the routing table and the store layout disagree, which is
// exactly what the sentinel means.
func TestOwnerOfCellLayoutMismatch(t *testing.T) {
	ctx := context.Background()
	_, ds := buildSmallStore(t, 500)
	dir := t.TempDir()
	if err := uei.Build(ctx, dir, ds, uei.BuildOptions{TargetChunkBytes: 4096, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	idx, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	coord := idx.ShardCoordinator()
	if coord == nil {
		t.Fatal("sharded index has no coordinator")
	}
	if _, err := coord.OwnerOfCell(0); err != nil {
		t.Fatalf("in-range cell: %v", err)
	}
	_, err = coord.OwnerOfCell(1 << 30)
	if !errors.Is(err, uei.ErrLayoutMismatch) {
		t.Fatalf("out-of-range cell: want ErrLayoutMismatch in the chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "1073741824") {
		t.Errorf("error %q does not name the offending cell id", err)
	}
}

// setFormatVersion rewrites the format_version of every chunk-store
// manifest under dir — one per part: each shard's, each live segment's —
// and returns their directories.
func setFormatVersion(t *testing.T, dir string, version int) []string {
	t.Helper()
	var parts []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() != "manifest.json" {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		m["format_version"] = version
		if raw, err = json.Marshal(m); err != nil {
			return err
		}
		parts = append(parts, filepath.Dir(path))
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || len(parts) == 0 {
		t.Fatalf("doctoring %s: %d manifests, err %v", dir, len(parts), err)
	}
	return parts
}

// TestRetiredShardedLayoutRefused: a directory of a layout this program no
// longer reads — the static sharded layout (a top-level shards.json over
// shard-NNN/ chunk stores) or the flat one (one chunk store, its
// manifest.json and d*.chk files at the top level) — fails to open with
// uei.ErrFormatVersion naming the rebuild, whatever shard count the
// options ask for.
func TestRetiredShardedLayoutRefused(t *testing.T) {
	ctx := context.Background()
	flat, ds := buildSmallStore(t, 500)
	dir := t.TempDir()
	if err := os.Rename(flat, filepath.Join(dir, "shard-000")); err != nil {
		t.Fatal(err)
	}
	manifest := map[string]any{
		"format_version": 1, "shards": 1, "segments_per_dim": 5, "hash": "fnv1a-cell-coords/v1",
		"columns": ds.Schema().Names(), "row_count": ds.Len(),
		"target_chunk_bytes": 4096, "shard_row_counts": []int{ds.Len()},
	}
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	manifest["min_values"], manifest["max_values"] = bounds.Min, bounds.Max
	raw, err := json.Marshal(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shards.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	flatDir := t.TempDir()
	st, err := chunkstore.Build(flatDir, ds, chunkstore.BuildOptions{TargetChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for layout, dir := range map[string]string{"sharded": dir, "flat": flatDir} {
		for _, shards := range []int{0, 1, 2} {
			_, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes(), Shards: shards})
			if !errors.Is(err, uei.ErrFormatVersion) || !strings.Contains(err.Error(), "uei-ingest") {
				t.Errorf("%s, Shards %d: err = %v, want ErrFormatVersion naming uei-ingest", layout, shards, err)
			}
		}
	}
}

// TestErrFormatVersionRoundTrip: a store whose manifests say format 1 —
// written before chunk version 2 — format 2 — a file per chunk — or format
// 3 — raw values and raw idmaps — fails to open with uei.ErrFormatVersion
// and names the rebuild, on every layout, and a chunk whose header says
// version 2 is refused by name when it is read.
func TestErrFormatVersionRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, ds := buildSmallStore(t, 500)
	for name, opts := range map[string]uei.BuildOptions{
		"one shard": {TargetChunkBytes: 4096},
		"sharded":   {TargetChunkBytes: 4096, Shards: 2},
		"live":      {TargetChunkBytes: 4096, Shards: 2, LiveIngest: true},
	} {
		dir := t.TempDir()
		if err := uei.Build(ctx, dir, ds, opts); err != nil {
			t.Fatal(err)
		}
		for _, old := range []int{1, 2, 3} {
			parts := setFormatVersion(t, dir, old)
			if _, err := chunkstore.Open(parts[0], nil); !errors.Is(err, uei.ErrFormatVersion) || !strings.Contains(err.Error(), "uei-ingest") {
				t.Errorf("%s format %d: chunkstore.Open: err = %v, want ErrFormatVersion naming uei-ingest", name, old, err)
			}
			if _, err := uei.Open(ctx, dir, uei.Options{MemoryBudgetBytes: ds.SizeBytes()}); !errors.Is(err, uei.ErrFormatVersion) {
				t.Errorf("%s format %d: Open: err = %v, want ErrFormatVersion", name, old, err)
			}
		}
		parts := setFormatVersion(t, dir, 4)
		if name != "one shard" {
			continue
		}
		st, err := chunkstore.Open(parts[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(parts[0], "d00.chk")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[4] = 2
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := chunkstore.Verify(ctx, st); err == nil || !strings.Contains(err.Error(), "unsupported chunk version 2") {
			t.Errorf("a version-2 chunk header: Verify err = %v", err)
		}
	}
}
