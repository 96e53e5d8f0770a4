package chunkstore_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
)

// sampledSource counts the passes a build makes over a source and, every
// sampleEvery rows, collects garbage and records the live heap.
type sampledSource struct {
	dataset.Source
	passes int
	peak   uint64
}

const sampleEvery = 1024

func (s *sampledSource) Rows() (dataset.Rows, error) {
	s.passes++
	rows, err := s.Source.Rows()
	return &sampledRows{Rows: rows, s: s}, err
}

type sampledRows struct {
	dataset.Rows
	s *sampledSource
	n int
}

func (r *sampledRows) Next() ([]float64, bool, error) {
	if r.n++; r.n%sampleEvery == 0 {
		r.s.peak = max(r.s.peak, liveHeap())
	}
	return r.Rows.Next()
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCSVBuildHoldsNoRows: a build streams a CSV file whose rows are 128
// times the spill budget (lowered here to 512 pairs a dimension) without
// holding them: at one shard, at four and live, the live heap sampled
// while the build reads the file stays within the pair buffers, 5 bytes a
// row (a row's shard and its idmap entry) and a fixed slack — a third of
// what the rows themselves take. One shard reads the file once; S = 4
// reads it S + 2 times.
func TestCSVBuildHoldsNoRows(t *testing.T) {
	const spill = 512
	chunkstore.LowerSpillPairs(t, spill)
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 128 * spill, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := dataset.WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	csv, err := dataset.OpenCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := uint64(ds.SizeBytes())
	bound := uint64(5*ds.Len()+2*ds.Dims()*spill*16) + 256<<10
	if bound > rowBytes/3 {
		t.Fatalf("bound %d B does not tell streaming from holding the rows' %d B", bound, rowBytes)
	}
	ds = nil
	for _, c := range []struct {
		name   string
		opts   core.BuildOptions
		passes int
	}{
		{"one shard", core.BuildOptions{}, 1},
		{"S=4", core.BuildOptions{Shards: 4}, 6},
		{"live", core.BuildOptions{LiveIngest: true}, 1},
	} {
		c.opts.TargetChunkBytes = 4096
		src := &sampledSource{Source: csv}
		base := liveHeap()
		if err := core.Build(filepath.Join(t.TempDir(), "store"), src, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if grown := src.peak - min(src.peak, base); grown > bound {
			t.Errorf("%s: live heap grew by %d B while reading the file, want at most %d B (its rows take %d B)", c.name, grown, bound, rowBytes)
		}
		if src.passes != c.passes {
			t.Errorf("%s: %d passes over the file, want %d", c.name, src.passes, c.passes)
		}
	}
}
