package shard

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
)

// BuildOptions configures Build and WriteFirstEpoch.
type BuildOptions struct {
	// Shards is S, in [1, MaxShards]; 0 means 1. One shard is one part
	// over every row, with no idmap.
	Shards int
	// SegmentsPerDim fixes the grid cells are hashed over. Zero selects
	// grid.DefaultSegmentsPerDim.
	SegmentsPerDim int
	// TargetChunkBytes is the per-shard chunk size target. Zero selects
	// chunkstore.DefaultTargetChunkBytes.
	TargetChunkBytes int
}

// OwnerOf returns the shard owning the cell with the given per-dimension
// segment coordinates: FNV-1a over the little-endian coordinates, mod S.
// Ingest and open must agree on this function byte for byte — it is the
// only thing tying a row's resting place to the coordinator's routing.
func OwnerOf(coords []int, shards int) int {
	h := fnv.New32a()
	var b [4]byte
	for _, c := range coords {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return int(h.Sum32() % uint32(shards))
}

// Build writes a store of S shards under dir (which must be empty or
// absent) from src: epoch 1 of the layout, one segment per shard holding
// the rows of the cells the shard owns, committed by CURRENT. It writes no
// wal/ directory, so the store is static: every open reads it and none
// writes to it.
func Build(dir string, src dataset.Source, opts BuildOptions) error {
	m, err := WriteFirstEpoch(dir, src, opts)
	if err != nil {
		return err
	}
	return CommitManifest(dir, m)
}

// CellOwners precomputes the owner shard of every cell of g. Exported for
// the stream subsystem, which partitions flushed memtables by the same
// assignment the coordinator routes by.
func CellOwners(g *grid.Grid, shards int) ([]int, error) {
	owners := make([]int, g.NumCells())
	for id := 0; id < g.NumCells(); id++ {
		coords, err := g.Coords(grid.CellID(id))
		if err != nil {
			return nil, err
		}
		owners[id] = OwnerOf(coords, shards)
	}
	return owners, nil
}

// WriteFirstEpoch writes the parts of a new store under dir (which must be
// empty or absent) from src, which must hold a row, and returns its
// epoch-1 manifest, uncommitted: CommitManifest makes it the store. At
// S > 1 a first pass pins the grid bounds; at one shard the one pass that
// writes the identity part pins them. WriteShards does the rest. A build
// that fails leaves dir as it found it.
func WriteFirstEpoch(dir string, src dataset.Source, opts BuildOptions) (*Manifest, error) {
	if opts.Shards < 0 || opts.Shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", opts.Shards, MaxShards)
	}
	m := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Epoch:            1,
		Shards:           max(opts.Shards, 1),
		SegmentsPerDim:   cmp.Or(opts.SegmentsPerDim, grid.DefaultSegmentsPerDim),
		Columns:          src.Schema().Names(),
		TargetChunkBytes: cmp.Or(opts.TargetChunkBytes, chunkstore.DefaultTargetChunkBytes),
		NextSegmentID:    1,
	}
	if m.SegmentsPerDim < 1 {
		return nil, fmt.Errorf("shard: %d segments per dimension", m.SegmentsPerDim)
	}
	var g *grid.Grid
	var owners []int
	n := -1 // unknown until a file's one pass ends; a dataset's sizes the buffers
	if ds, ok := src.(*dataset.Dataset); ok && ds.Len() > 0 {
		n = ds.Len()
	}
	if m.Shards > 1 {
		bounds, rows, err := dataset.BoundsOf(src)
		if err != nil {
			return nil, err
		}
		m.MinValues, m.MaxValues, n = bounds.Min, bounds.Max, rows
		if g, err = m.Grid(); err != nil {
			return nil, err
		}
		if owners, err = CellOwners(g, m.Shards); err != nil {
			return nil, err
		}
	}
	undo, err := makeEmptyDir(dir)
	if err != nil {
		return nil, err
	}
	if err := m.WriteShards(dir, g, owners, src, 0, n, true); err != nil {
		undo()
		return nil, err
	}
	for _, seg := range m.Segments {
		m.FlushedRows += seg.Rows
	}
	return m, nil
}

// WriteShards writes the n rows of src, global ids firstID, firstID+1, ...
// in pass order, as one new segment per shard, each row in the segment of
// the shard owning its cell of g (owners is CellOwners(g, m.Shards)). A
// first pass records each row's shard in a byte; then each shard's segment
// is written from a pass of its own, so one part's pair buffers are in
// memory at a time. One shard takes one pass, which pins m's bounds if
// they are not yet (n < 0: nor is the count). A shard owning no row gets an
// empty segment when keepEmpty is set (a first epoch), and none otherwise.
func (m *Manifest) WriteShards(dir string, g *grid.Grid, owners []int, src dataset.Source, firstID uint32, n int, keepEmpty bool) error {
	counts := []int{n}
	var owner []byte // each row's shard mod 256; nil with one shard
	if m.Shards > 1 {
		counts, owner = make([]int, m.Shards), make([]byte, n)
		err := m.pass(src, firstID, n, nil, func(next IDRows) error {
			for {
				id, row, ok, err := next()
				if !ok || err != nil {
					return err
				}
				if err := m.inBounds(id, row); err != nil {
					return err
				}
				cell, err := g.CellOf(row)
				if err != nil {
					return err
				}
				owner[id-firstID] = byte(owners[cell])
				counts[owners[cell]]++
			}
		})
		if err != nil {
			return err
		}
	}
	for s, count := range counts {
		if count == 0 && !keepEmpty {
			continue
		}
		// A row whose owner byte is another shard's is skipped unparsed;
		// past 256 shards a byte is shared, and the cell settles the rest
		// (a row with none is kept for inBounds to name).
		var keep func(id uint32) bool
		if owner != nil {
			keep = func(id uint32) bool { return owner[id-firstID] == byte(s) }
		}
		mine := func(row []float64) bool {
			if m.Shards <= 256 {
				return true
			}
			cell, err := g.CellOf(row)
			return err != nil || owners[cell] == s
		}
		err := m.pass(src, firstID, n, keep, func(next IDRows) error {
			bounds, err := m.WriteSegment(dir, s, func() (uint32, []float64, bool, error) {
				for {
					id, row, ok, err := next()
					if !ok || err != nil {
						return 0, nil, false, err
					}
					if mine(row) {
						err := m.inBounds(id, row)
						return id, row, err == nil, err
					}
				}
			}, count)
			if err == nil && m.MinValues == nil {
				m.MinValues, m.MaxValues = bounds.Min, bounds.Max
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pass calls fn with one pass over src's rows and their global ids,
// skipping undecoded each row whose id keep refuses (nil keeps them all; a
// pass skips only once n is pinned). Once n is pinned, a pass must hold n
// rows, skipped ones included, and each row it places must lie inside m's
// bounds (inBounds): one that does not shows the source changed during the
// build.
func (m *Manifest) pass(src dataset.Source, firstID uint32, n int, keep func(id uint32) bool, fn func(IDRows) error) error {
	rows, err := src.Rows()
	if err != nil {
		return err
	}
	defer rows.Close()
	i := 0
	return fn(func() (uint32, []float64, bool, error) {
		row, ok, err := []float64(nil), true, error(nil)
		for ; keep != nil && i < n && !keep(firstID+uint32(i)); i++ {
			if ok, err = rows.Skip(); !ok || err != nil {
				break
			}
		}
		if ok && err == nil {
			row, ok, err = rows.Next()
		}
		switch {
		case err != nil:
			return 0, nil, false, err
		case n >= 0 && ok && i == n:
			return 0, nil, false, fmt.Errorf("shard: the source changed during the build: a pass holds more than its %d rows", n)
		case n >= 0 && !ok && i < n:
			return 0, nil, false, fmt.Errorf("shard: the source changed during the build: a pass ended after %d of its %d rows", i, n)
		case !ok:
			return 0, nil, false, nil
		}
		i++
		return firstID + uint32(i-1), row, true, nil
	})
}

// inBounds fails row id if it lies outside m's bounds (none yet: a
// one-shard first epoch, whose one pass pins them).
func (m *Manifest) inBounds(id uint32, row []float64) error {
	for d := range m.MinValues {
		if v := row[d]; !(v >= m.MinValues[d] && v <= m.MaxValues[d]) {
			return fmt.Errorf("shard: the source changed during the build: row %d column %q = %g lies outside its bounds [%g, %g]", id, m.Columns[d], v, m.MinValues[d], m.MaxValues[d])
		}
	}
	return nil
}

// makeEmptyDir creates dir, or checks that it exists empty, and returns
// undo, which removes what was written there since, and dir if it made it.
func makeEmptyDir(dir string) (undo func(), err error) {
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create %s: %w", dir, err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return nil, fmt.Errorf("shard: inspect %s: %w", dir, err)
	} else if len(entries) > 0 {
		return nil, fmt.Errorf("shard: directory %s is not empty", dir)
	}
	return func() {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
		if errors.Is(statErr, os.ErrNotExist) {
			os.Remove(dir)
		}
	}, nil
}
