package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Chunk file layout (little endian):
//
//	magic   [4]byte  "UEIC"
//	version uint16   (currently 1)
//	dim     uint16   dimension index the chunk belongs to
//	entries uint32   number of postings
//	min     float64  smallest value in the chunk
//	max     float64  largest value in the chunk
//	payload entries × { value float64, rowCount uvarint, row-id deltas uvarint… }
//	crc32   uint32   IEEE CRC of everything before it
//
// Posting lists are delta-encoded ascending row ids. Values are strictly
// increasing within a chunk (they are distinct by construction); the
// decoder refuses a chunk where they, or a posting's row ids, are not.
const (
	chunkMagic   = "UEIC"
	chunkVersion = 1
	headerSize   = 4 + 2 + 2 + 4 + 8 + 8
	// minEntrySize is the smallest encoded posting: a value, a one-byte
	// row count and one one-byte row id.
	minEntrySize = 8 + 1 + 1
)

// encodeChunk serializes entries for dimension dim. Entries must be sorted
// ascending by value and non-empty.
func encodeChunk(dim int, entries []Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("chunkstore: refusing to encode an empty chunk")
	}
	if dim < 0 || dim > math.MaxUint16 {
		return nil, fmt.Errorf("chunkstore: dimension %d out of uint16 range", dim)
	}
	var buf bytes.Buffer
	buf.WriteString(chunkMagic)
	writeU16(&buf, chunkVersion)
	writeU16(&buf, uint16(dim))
	writeU32(&buf, uint32(len(entries)))
	writeF64(&buf, entries[0].Value)
	writeF64(&buf, entries[len(entries)-1].Value)

	var tmp [binary.MaxVarintLen64]byte
	prevValue := math.Inf(-1)
	for i, e := range entries {
		if len(e.Rows) == 0 {
			return nil, fmt.Errorf("chunkstore: entry %d has an empty posting list", i)
		}
		if !(e.Value > prevValue) {
			return nil, fmt.Errorf("chunkstore: entry %d value %g not strictly increasing after %g", i, e.Value, prevValue)
		}
		prevValue = e.Value
		writeF64(&buf, e.Value)
		n := binary.PutUvarint(tmp[:], uint64(len(e.Rows)))
		buf.Write(tmp[:n])
		prev := uint32(0)
		for j, r := range e.Rows {
			if j > 0 && r <= prev {
				return nil, fmt.Errorf("chunkstore: entry %d posting list not strictly increasing at %d", i, j)
			}
			d := r
			if j > 0 {
				d = r - prev
			}
			n := binary.PutUvarint(tmp[:], uint64(d))
			buf.Write(tmp[:n])
			prev = r
		}
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	writeU32(&buf, crc)
	return buf.Bytes(), nil
}

// errUnordered marks a CRC-valid chunk whose values or row ids do not
// strictly ascend. Every reader trusts that order — MergeChunks stops at the
// first value past the box — so the decoder refuses such a chunk, and Verify
// reports it as "order".
var errUnordered = errors.New("not strictly ascending")

// Postings is a decoded chunk as three flat columns: value Values[i] posts
// the ascending row ids Rows[Ends[i-1]:Ends[i]] (Rows[:Ends[0]] for i = 0).
// Its only pointers are the three arrays, which hold none, so a resident
// chunk is nothing the garbage collector scans, and a chunk decodes into
// three allocations fresh and none reused.
type Postings struct {
	Values []float64
	Ends   []uint32
	Rows   []uint32
}

// Bytes is the resident footprint of p: 8 bytes per value, 4 per end and 4
// per row id. It is what the block cache charges a resident chunk.
func (p Postings) Bytes() int64 {
	return 12*int64(len(p.Values)) + 4*int64(len(p.Rows))
}

// Entries is p as one Entry per value, each Rows a capacity-clipped view of
// p.Rows, so an append to one moves it instead of writing the next. Nothing
// in the program calls it: it stays because ReadChunk returns it to
// benchmark/layers.go and a change outside benchmark/ may not edit that
// file; the next benchmark change drops both.
func (p Postings) Entries() []Entry {
	out := make([]Entry, len(p.Values))
	start := uint32(0)
	for i, v := range p.Values {
		end := p.Ends[i]
		out[i] = Entry{Value: v, Rows: p.Rows[start:end:end]}
		start = end
	}
	return out
}

// decodeChunk parses a chunk file and verifies its CRC. It returns the
// dimension the chunk belongs to and its postings, in storage of their own.
func decodeChunk(data []byte) (dim int, p Postings, err error) {
	dim, err = decodeChunkInto(data, &p, 0)
	return dim, p, err
}

// decodeChunkInto is decodeChunk into p, overwriting whatever p held and
// reusing its arrays where they are large enough. rowsHint is the row-id
// total the caller expects (ChunkMeta.RowRefs) and sizes Rows once; it is a
// hint from a file, so it is clamped to what the payload can encode, and a
// wrong one costs a second allocation, never a wrong result.
func decodeChunkInto(data []byte, p *Postings, rowsHint int) (dim int, err error) {
	if len(data) < headerSize+4 {
		return 0, fmt.Errorf("chunkstore: chunk truncated: %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	wantCRC := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return 0, fmt.Errorf("chunkstore: chunk corrupted: crc %#x, want %#x", got, wantCRC)
	}
	if string(body[:4]) != chunkMagic {
		return 0, fmt.Errorf("chunkstore: bad magic %q", body[:4])
	}
	version := binary.LittleEndian.Uint16(body[4:6])
	if version != chunkVersion {
		return 0, fmt.Errorf("chunkstore: unsupported chunk version %d", version)
	}
	dim = int(binary.LittleEndian.Uint16(body[6:8]))
	count := binary.LittleEndian.Uint32(body[8:12])
	// min/max at body[12:28] are redundant with the entries; the manifest
	// uses them without reading the payload, and decode re-derives them.
	payload := body[headerSize:]

	// Counts come from the file and a CRC only proves the writer meant
	// them: bound each by what the bytes left can hold before allocating.
	if uint64(count)*minEntrySize > uint64(len(payload)) {
		return 0, fmt.Errorf("chunkstore: %d entries cannot fit a %d-byte payload", count, len(payload))
	}
	// Ends are uint32: a row id takes at least a byte, so a payload below
	// 4 GiB cannot post more.
	if uint64(len(payload)) > math.MaxUint32 {
		return 0, fmt.Errorf("chunkstore: %d-byte payload exceeds 4 GiB", len(payload))
	}
	values, ends := p.Values[:0], p.Ends[:0]
	if cap(values) < int(count) {
		values = make([]float64, 0, count)
	}
	if cap(ends) < int(count) {
		ends = make([]uint32, 0, count)
	}
	// Every entry holds at least one row id, and a row id takes at least
	// one byte of what the entries' nine-byte minimum headers leave.
	rows := p.Rows[:0]
	if want := min(max(rowsHint, int(count)), len(payload)-(minEntrySize-1)*int(count)); cap(rows) < want {
		rows = make([]uint32, 0, want)
	}
	off := 0
	last := math.Inf(-1)
	for i := uint32(0); i < count; i++ {
		if off+8 > len(payload) {
			return 0, fmt.Errorf("chunkstore: payload truncated at entry %d", i)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		// NaN ascends from nothing and nothing ascends from it.
		if !(value > last) {
			return 0, fmt.Errorf("chunkstore: entry %d value %g after %g: %w", i, value, last, errUnordered)
		}
		last = value
		var rowCount uint64
		var n int
		if off < len(payload) && payload[off] < 0x80 {
			rowCount, n = uint64(payload[off]), 1
		} else if rowCount, n = binary.Uvarint(payload[off:]); n <= 0 {
			return 0, fmt.Errorf("chunkstore: bad posting count at entry %d", i)
		}
		off += n
		if rowCount == 0 {
			return 0, fmt.Errorf("chunkstore: empty posting list at entry %d", i)
		}
		if rowCount > uint64(len(payload)-off) {
			return 0, fmt.Errorf("chunkstore: %d postings at entry %d cannot fit the %d bytes left", rowCount, i, len(payload)-off)
		}
		a := len(rows)
		b := a + int(rowCount)
		if b > cap(rows) {
			// The hint was short. Rows stays contiguous, so it grows by
			// copying, to room for everything still to come, again bounded
			// by the bytes left.
			rows = append(make([]uint32, 0, a+max(int(rowCount), len(payload)-off-(minEntrySize-1)*int(count-1-i))), rows...)
		}
		rows = rows[:b]
		// The first row id is absolute and parsed here, so a one-row
		// posting — every posting of a real-valued dimension — makes no
		// call; decodeDeltas parses the deltas after it.
		id, n := uint64(0), 0
		if off+3 <= len(payload) {
			id, n = uvarint3(payload[off], payload[off+1], payload[off+2])
		}
		if n == 0 {
			if id, n = binary.Uvarint(payload[off:]); n <= 0 {
				return 0, fmt.Errorf("chunkstore: bad row delta at entry %d posting 0", i)
			}
		}
		off += n
		if id > math.MaxUint32 {
			return 0, fmt.Errorf("chunkstore: row id overflow at entry %d", i)
		}
		rows[a] = uint32(id)
		if rowCount > 1 {
			var err error
			if off, err = decodeDeltas(payload, off, rows[a:b], i); err != nil {
				return 0, err
			}
		}
		values = append(values, value)
		ends = append(ends, uint32(b))
	}
	if off != len(payload) {
		return 0, fmt.Errorf("chunkstore: %d trailing payload bytes", len(payload)-off)
	}
	*p = Postings{Values: values, Ends: ends, Rows: rows}
	return dim, nil
}

// decodeDeltas parses the delta-coded row ids of entry i's posting after
// the first, which dst[0] holds, from payload[off:] into dst[1:], and
// returns the offset after them.
func decodeDeltas(payload []byte, off int, dst []uint32, i uint32) (int, error) {
	prev := uint64(dst[0])
	for j := 1; j < len(dst); j++ {
		var d uint64
		var n int
		if off+3 <= len(payload) {
			d, n = uvarint3(payload[off], payload[off+1], payload[off+2])
		}
		if n == 0 {
			if d, n = binary.Uvarint(payload[off:]); n <= 0 {
				return 0, fmt.Errorf("chunkstore: bad row delta at entry %d posting %d", i, j)
			}
		}
		off += n
		if d == 0 {
			return 0, fmt.Errorf("chunkstore: entry %d posting %d repeats row %d: %w", i, j, prev, errUnordered)
		}
		// Written so that no delta can wrap prev past 2⁶⁴ back into range.
		if d > math.MaxUint32-prev {
			return 0, fmt.Errorf("chunkstore: row id overflow at entry %d", i)
		}
		prev += d
		dst[j] = uint32(prev)
	}
	return off, nil
}

// uvarint3 decodes a varint of one to three bytes — row ids and deltas
// below 2²¹, nearly every varint in a chunk — from its first three bytes
// without a branch on its length: the continuation bits of the first two
// mask what the next ones contribute, so the next varint's offset waits on
// three loads and a few ALU ops, never on a mispredicted length. It returns
// n = 0 for a longer encoding, which is binary.Uvarint's. It takes bytes,
// not a slice and an offset, to stay under the inliner's budget.
func uvarint3(b0, b1, b2 byte) (v uint64, n int) {
	x0, x1, x2 := uint64(b0), uint64(b1), uint64(b2)
	c0 := x0 >> 7
	c1 := c0 & (x1 >> 7)
	if c1&(x2>>7) != 0 {
		return 0, 0
	}
	return x0&0x7f | (x1&0x7f)<<7&-c0 | x2<<14&-c1, int(1 + c0 + c1)
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeF64(buf *bytes.Buffer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	buf.Write(b[:])
}
