// Package chunkstore implements UEI's secondary-storage layout (§3.1,
// Figure 2): the dataset is vertically decomposed; each dimension is sorted
// ascending and stored as an inverted index of <value, {row ids}> postings;
// the postings of each dimension are split into equal-size chunks, each a
// separate file on disk, with values in strictly increasing order across a
// dimension's chunk sequence. A JSON manifest records, per chunk, its file,
// entry count, and value range, which is what the grid's mapping method m
// consults to find the chunks that rebuild a subspace.
package chunkstore

import (
	"fmt"
	"sort"

	"github.com/uei-db/uei/internal/dataset"
)

// Entry is one inverted-index posting: a distinct attribute value and the
// ascending ids of the rows holding it.
type Entry struct {
	Value float64
	Rows  []uint32
}

// decompose performs the vertical decomposition of Algorithm 2 (lines 2-4)
// for a single dimension: it groups row ids by value and returns the
// entries sorted ascending by value, each posting list sorted ascending.
func decompose(ds *dataset.Dataset, dim int) []Entry {
	byValue := make(map[float64][]uint32)
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		v := row[dim]
		byValue[v] = append(byValue[v], uint32(id))
		return true
	})
	entries := make([]Entry, 0, len(byValue))
	for v, rows := range byValue {
		// Scan visits ids in ascending order, so posting lists arrive
		// sorted, as the codec requires.
		entries = append(entries, Entry{Value: v, Rows: rows})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Value < entries[j].Value })
	return entries
}

// chunkCutter splits one dimension's ascending entries into chunk files:
// it cuts as soon as the exact encoded payload of the pending entries, at
// the widths they need so far, reaches the target. Both build paths write
// through it, so they cut the same chunks.
type chunkCutter struct {
	dir         string
	dim, target int
	metas       []ChunkMeta
	pending     []Entry
	rows        int
	maxID       uint32
	maxCount    int
}

func (k *chunkCutter) add(e Entry) error {
	if len(e.Rows) == 0 {
		return fmt.Errorf("chunkstore: value %g has an empty posting list", e.Value)
	}
	k.pending = append(k.pending, e)
	k.rows += len(e.Rows)
	k.maxID = max(k.maxID, e.Rows[len(e.Rows)-1])
	k.maxCount = max(k.maxCount, len(e.Rows))
	if k.payload() >= uint64(k.target) {
		return k.flush()
	}
	return nil
}

// payload is the encoded payload size of the pending entries.
func (k *chunkCutter) payload() uint64 {
	w, c := chunkWidths(k.maxID, k.maxCount)
	return payloadSize(uint64(len(k.pending)), uint64(k.rows), w, c)
}

// flush writes the pending entries, if any, as the dimension's next chunk.
func (k *chunkCutter) flush() error {
	if len(k.pending) == 0 {
		return nil
	}
	meta, err := writeChunkFile(k.dir, k.dim, len(k.metas), k.pending)
	if err != nil {
		return err
	}
	k.metas = append(k.metas, meta)
	k.pending, k.rows, k.maxID, k.maxCount = k.pending[:0], 0, 0, 0
	return nil
}
