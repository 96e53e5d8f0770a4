package chunkstore

import (
	"bytes"
	"encoding/binary"
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
// increasing within a chunk (they are distinct by construction).
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
		if e.Value <= prevValue {
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

// decodeBuf is the storage a decoded chunk lives in: the entry headers and
// one row-id arena of which every posting list is a capacity-clipped
// sub-slice, so a chunk costs two allocations fresh and none reused.
type decodeBuf struct {
	entries []Entry
	arena   []uint32
}

// decodeChunk parses a chunk file and verifies its CRC. It returns the
// dimension the chunk belongs to and its entries, in storage of their own.
func decodeChunk(data []byte) (dim int, entries []Entry, err error) {
	return decodeChunkInto(data, new(decodeBuf), 0)
}

// decodeChunkInto is decodeChunk into buf, overwriting whatever buf held:
// the returned entries alias buf and are valid until its next decode.
// rowsHint is the row-id total the caller expects (ChunkMeta.RowRefs) and
// sizes the arena once; it is a hint from a file, so it is clamped to what
// the payload can encode, and a wrong one costs a second allocation, never
// a wrong result.
func decodeChunkInto(data []byte, buf *decodeBuf, rowsHint int) (dim int, entries []Entry, err error) {
	if len(data) < headerSize+4 {
		return 0, nil, fmt.Errorf("chunkstore: chunk truncated: %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	wantCRC := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return 0, nil, fmt.Errorf("chunkstore: chunk corrupted: crc %#x, want %#x", got, wantCRC)
	}
	if string(body[:4]) != chunkMagic {
		return 0, nil, fmt.Errorf("chunkstore: bad magic %q", body[:4])
	}
	version := binary.LittleEndian.Uint16(body[4:6])
	if version != chunkVersion {
		return 0, nil, fmt.Errorf("chunkstore: unsupported chunk version %d", version)
	}
	dim = int(binary.LittleEndian.Uint16(body[6:8]))
	count := binary.LittleEndian.Uint32(body[8:12])
	// min/max at body[12:28] are redundant with the entries; the manifest
	// uses them without reading the payload, and decode re-derives them.
	payload := body[headerSize:]

	// Counts come from the file and a CRC only proves the writer meant
	// them: bound each by what the bytes left can hold before allocating.
	if uint64(count)*minEntrySize > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("chunkstore: %d entries cannot fit a %d-byte payload", count, len(payload))
	}
	entries = buf.entries[:0]
	if cap(entries) < int(count) {
		entries = make([]Entry, 0, count)
	}
	// Every entry holds at least one row id, and a row id takes at least
	// one byte of what the entries' nine-byte minimum headers leave.
	arena := buf.arena[:0]
	if want := min(max(rowsHint, int(count)), len(payload)-(minEntrySize-1)*int(count)); cap(arena) < want {
		arena = make([]uint32, 0, want)
	}
	off := 0
	for i := uint32(0); i < count; i++ {
		if off+8 > len(payload) {
			return 0, nil, fmt.Errorf("chunkstore: payload truncated at entry %d", i)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		rowCount, n := uvarint(payload, off)
		if n <= 0 {
			return 0, nil, fmt.Errorf("chunkstore: bad posting count at entry %d", i)
		}
		off += n
		if rowCount == 0 {
			return 0, nil, fmt.Errorf("chunkstore: empty posting list at entry %d", i)
		}
		if rowCount > uint64(len(payload)-off) {
			return 0, nil, fmt.Errorf("chunkstore: %d postings at entry %d cannot fit the %d bytes left", rowCount, i, len(payload)-off)
		}
		a := len(arena)
		b := a + int(rowCount)
		if b > cap(arena) {
			// The hint was short. Entries already decoded keep the old
			// array, whose contents do not change; the new one takes
			// everything still to come, again bounded by the bytes left.
			a, b = 0, int(rowCount)
			arena = make([]uint32, 0, max(b, len(payload)-off-(minEntrySize-1)*int(count-1-i)))
		}
		arena = arena[:b]
		rows := arena[a:b:b]
		prev := uint64(0)
		for j := range rows {
			d, n := uvarint(payload, off)
			if n <= 0 {
				return 0, nil, fmt.Errorf("chunkstore: bad row delta at entry %d posting %d", i, j)
			}
			off += n
			if j == 0 {
				prev = d
			} else {
				prev += d
			}
			if prev > math.MaxUint32 {
				return 0, nil, fmt.Errorf("chunkstore: row id overflow at entry %d", i)
			}
			rows[j] = uint32(prev)
		}
		entries = append(entries, Entry{Value: value, Rows: rows})
	}
	if off != len(payload) {
		return 0, nil, fmt.Errorf("chunkstore: %d trailing payload bytes", len(payload)-off)
	}
	buf.entries, buf.arena = entries, arena
	return dim, entries, nil
}

// uvarint is binary.Uvarint(buf[off:]) with the one-to-three-byte
// encodings — posting counts and row ids below 2²¹, nearly every varint in
// a chunk — decoded in place. Anything longer, or within three bytes of the
// end, is binary.Uvarint's, so every error case is too.
func uvarint(buf []byte, off int) (uint64, int) {
	if off+3 <= len(buf) {
		b0, b1, b2 := buf[off], buf[off+1], buf[off+2]
		switch {
		case b0 < 0x80:
			return uint64(b0), 1
		case b1 < 0x80:
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		case b2 < 0x80:
			return uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14, 3
		}
	}
	return binary.Uvarint(buf[off:])
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
