// Package chunkstore implements UEI's secondary-storage layout (§3.1,
// Figure 2): the dataset is vertically decomposed; each dimension is sorted
// ascending and stored as an inverted index of <value, {row ids}> postings;
// the postings of each dimension are split into chunks, equal-size within
// a grid segment and cut at every segment boundary of the grid the writer
// is given, with values in strictly increasing order across a dimension's
// chunk sequence.
// Where the paper keeps each chunk in a file of its own, a store keeps a
// dimension's chunks back to back, in sequence order, in one data file
// (d<dim>.chk); the chunk stays the unit of read, CRC and decode. A JSON
// manifest records, per chunk, its size, entry count and value range, from
// which the loader derives its extent; the range is what the grid's
// mapping method m consults to find the chunks that rebuild a subspace.
package chunkstore

import (
	"fmt"
	"io"
	"math/bits"

	"github.com/uei-db/uei/internal/kernel"
)

// Entry is one inverted-index posting: a distinct attribute value and the
// ascending ids of the rows holding it.
type Entry struct {
	Value float64
	Rows  []uint32
}

// chunkCutter splits one dimension's ascending entries into chunks, which
// it appends to w: it cuts as soon as the exact encoded payload of the
// pending entries, at the widths they need so far, reaches the target,
// before an entry whose value gap is wider than kernel.MaxVectorGap bits,
// and, when segment is non-nil, before an entry whose segment is not the
// pending entries' one. Gaps that wide span 2⁵⁷ keys each, so a dimension
// has at most 128 of them — a zero between values far from it, a sign
// change — and its other chunks keep their narrow widths.
type chunkCutter struct {
	w           io.Writer
	dim, target int
	segment     SegmentFunc
	seg         int // the pending entries' segment, while any are pending
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
	gaps     uint64 // the OR of the pending values' gaps: its width is theirs
}

func (k *chunkCutter) add(e Entry) error {
	if len(e.Rows) == 0 {
		return fmt.Errorf("chunkstore: value %g has an empty posting list", e.Value)
	}
	if k.segment != nil {
		seg, err := k.segment(k.dim, e.Value)
		if err != nil {
			return fmt.Errorf("chunkstore: dimension %d: %w", k.dim, err)
		}
		if len(k.pending) > 0 && seg != k.seg {
			if err := k.flush(); err != nil {
				return err
			}
		}
		k.seg = seg
	}
	if n := len(k.pending); n > 0 {
		if gap := valueGap(k.pending[n-1].Value, e.Value); bits.Len64(gap) > kernel.MaxVectorGap {
			// The gap would widen every gap of the chunk past what the
			// vector decode takes: it starts a chunk instead.
			if err := k.flush(); err != nil {
				return err
			}
		} else {
			k.gaps |= gap
		}
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
	return payloadSize(uint64(len(k.pending)), uint64(len(k.ids)), uint(bits.Len64(k.gaps)), w, c)
}

// flush writes the pending entries, if any, as the dimension's next chunk.
func (k *chunkCutter) flush() error {
	if len(k.pending) == 0 {
		return nil
	}
	data, err := encodeChunk(k.dim, k.pending)
	if err != nil {
		return err
	}
	if _, err := k.w.Write(data); err != nil {
		return fmt.Errorf("chunkstore: write dimension %d chunk %d: %w", k.dim, len(k.metas), err)
	}
	k.metas = append(k.metas, ChunkMeta{
		Dim:      k.dim,
		Seq:      len(k.metas),
		Entries:  len(k.pending),
		RowRefs:  len(k.ids),
		MinValue: k.pending[0].Value,
		MaxValue: k.pending[len(k.pending)-1].Value,
		Bytes:    int64(len(data)),
	})
	k.pending, k.ids, k.maxID, k.maxCount, k.gaps = k.pending[:0], k.ids[:0], 0, 0, 0
	return nil
}
