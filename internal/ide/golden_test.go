package ide

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// goldenSessionDigest is the FNV-64a digest of (labeled row ids in order,
// retrieved result ids, final Uncertainties() bits) of one seeded session.
// It was recorded at commit b346c25, before the flat and flat-live readers
// became the one-shard case of shard.Coordinator, and it is the same value
// for every layout and worker count below: the layouts hold the same rows
// under the same ids over the same grid, so every decision is identical.
const goldenSessionDigest uint64 = 0x7a9d5d29dee75e1

// goldenDataset returns a base dataset and the rows a live store ingests
// after creation. Every extra row lies inside the base's bounds, so
// base+extra has the base's bounds and a static build over all rows uses
// exactly the grid the live store pinned at creation.
func goldenDataset(t *testing.T) (base *dataset.Dataset, extra [][]float64, all *dataset.Dataset) {
	t.Helper()
	full, err := dataset.GenerateSky(dataset.SkyConfig{N: 2400, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	const baseLen = 1200
	base = dataset.New(full.Schema(), baseLen)
	all = dataset.New(full.Schema(), full.Len())
	for i := 0; i < baseLen; i++ {
		row := full.Row(dataset.RowID(i))
		if _, err := base.Append(row); err != nil {
			t.Fatal(err)
		}
		if _, err := all.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	bounds, err := base.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	for i := baseLen; i < full.Len(); i++ {
		row := full.CopyRow(dataset.RowID(i))
		if !bounds.Contains(row) {
			continue
		}
		extra = append(extra, row)
		if _, err := all.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if len(extra) < 600 {
		t.Fatalf("only %d in-bounds extra rows", len(extra))
	}
	return base, extra, all
}

// TestGoldenSessionDigest pins the bytes a session produces across the
// data-plane refactor: flat, sharded and flat-live (two flushes, so reads
// merge three segments) must all reproduce the digest recorded at the
// parent commit, at one worker and at four.
func TestGoldenSessionDigest(t *testing.T) {
	base, extra, all := goldenDataset(t)
	region, err := oracle.FindRegion(all, 0.02, 0.5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := all.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	widths := bounds.Widths()
	ctx := context.Background()

	open := func(t *testing.T, layout string, workers int) *core.Index {
		dir := t.TempDir()
		bo := core.BuildOptions{TargetChunkBytes: 2048}
		src := all
		switch layout {
		case "S=4":
			bo.Shards = 4
		case "flat-live":
			bo.LiveIngest = true
			src = base
		}
		if err := core.Build(dir, src, bo); err != nil {
			t.Fatal(err)
		}
		idx, err := core.Open(ctx, dir, core.Options{
			MemoryBudgetBytes: 1 << 20, SampleSize: 200, Seed: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		if layout == "flat-live" {
			for _, part := range [][][]float64{extra[:len(extra)/2], extra[len(extra)/2:]} {
				if _, err := idx.Append(ctx, part); err != nil {
					t.Fatal(err)
				}
				if err := idx.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
				t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
			}
		}
		if idx.RowCount() != all.Len() {
			t.Fatalf("%s holds %d rows, want %d", layout, idx.RowCount(), all.Len())
		}
		return idx
	}

	for _, layout := range []string{"flat", "S=4", "flat-live"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", layout, workers), func(t *testing.T) {
				idx := open(t, layout, workers)
				p, err := NewUEIProvider(idx)
				if err != nil {
					t.Fatal(err)
				}
				// The oracle counts labels over its lifetime: one per run.
				orc, err := oracle.New(all, region)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var b [8]byte
				put32 := func(v uint32) {
					binary.LittleEndian.PutUint32(b[:4], v)
					h.Write(b[:4])
				}
				sess, err := NewSession(Config{
					MaxLabels:        25,
					EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(5, widths) },
					Strategy:         al.LeastConfidence{},
					Seed:             7,
					SeedWithPositive: true,
					OnIteration:      func(it IterationInfo) { put32(it.SelectedID) },
				}, p, OracleLabeler{O: orc})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sess.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Positive) == 0 {
					t.Fatal("session retrieved nothing")
				}
				for _, id := range res.Positive {
					put32(id)
				}
				for _, u := range idx.Uncertainties() {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(u))
					h.Write(b[:])
				}
				if got := h.Sum64(); got != goldenSessionDigest {
					t.Errorf("session digest %#x, recorded %#x", got, goldenSessionDigest)
				}
			})
		}
	}
}
