// Package chunkstore implements UEI's secondary-storage layout (§3.1,
// Figure 2): the dataset is vertically decomposed; each dimension is sorted
// ascending and stored as an inverted index of <value, {row ids}> postings;
// the postings of each dimension are split into equal-size chunks, each a
// separate file on disk, with values in strictly increasing order across a
// dimension's chunk sequence. A JSON manifest records, per chunk, its file,
// entry count, and value range, which is what the grid's mapping method m
// consults to find the chunks that rebuild a subspace.
package chunkstore

import "fmt"

// Entry is one inverted-index posting: a distinct attribute value and the
// ascending ids of the rows holding it.
type Entry struct {
	Value float64
	Rows  []uint32
}

// chunkCutter splits one dimension's ascending entries into chunk files:
// it cuts as soon as the exact encoded payload of the pending entries, at
// the widths they need so far, reaches the target.
type chunkCutter struct {
	dir         string
	dim, target int
	metas       []ChunkMeta
	// pending holds the entries of the chunk being cut. Their posting
	// lists are copied back to back into ids, one buffer reused from chunk
	// to chunk, so a caller may reuse e.Rows once add returns. When ids
	// grows, the entries already pending keep pointing into the old array,
	// which nothing writes again.
	pending  []Entry
	ids      []uint32
	maxID    uint32
	maxCount int
}

func (k *chunkCutter) add(e Entry) error {
	if len(e.Rows) == 0 {
		return fmt.Errorf("chunkstore: value %g has an empty posting list", e.Value)
	}
	start := len(k.ids)
	k.ids = append(k.ids, e.Rows...)
	k.pending = append(k.pending, Entry{Value: e.Value, Rows: k.ids[start:len(k.ids):len(k.ids)]})
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
	return payloadSize(uint64(len(k.pending)), uint64(len(k.ids)), w, c)
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
	k.pending, k.ids, k.maxID, k.maxCount = k.pending[:0], k.ids[:0], 0, 0
	return nil
}
