package chunkstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/uei-db/uei/internal/kernel"
)

// Chunk layout, version 2 (little endian), one chunk of a data file:
//
//	magic    [4]byte  "UEIC"
//	version  uint16   2
//	dim      uint16   dimension index the chunk belongs to
//	entries  uint32   number of postings
//	rows     uint32   number of row ids over all postings
//	w        uint8    row-id width in bits, 1…32
//	c        uint8    posting-count width in bits, 0…32
//	reserved uint16   0
//	min      float64  smallest value in the chunk
//	max      float64  largest value in the chunk
//	values   [entries]float64, strictly ascending
//	counts   each posting's row count − 1, packed at c bits (absent when c = 0)
//	ids      every row id in posting order, packed at w bits
//	crc32    uint32   CRC-32C of everything before it
//
// Packed sections are LSB-first, item k at bits [k·w, (k+1)·w), and end on
// a byte with its unused bits zero. c = 0 means every posting holds one
// row. Ids are absolute, so no field's position depends on another's
// value: decode is a copy of the values, a prefix sum of the counts and a
// fixed-stride unpack of the ids. The decoder refuses a chunk whose values,
// or whose postings' row ids, do not strictly ascend.
const (
	chunkMagic = "UEIC"
	headerSize = 4 + 2 + 2 + 4 + 4 + 1 + 1 + 2 + 8 + 8
	// minEntrySize is the smallest encoded posting: a value and one
	// one-bit row id, which takes a byte of its own.
	minEntrySize = 8 + 1
)

// ChunkVersion is the one chunk version this package writes and
// reads.
const ChunkVersion = 2

// castagnoli is the CRC-32C table of the chunk checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkWidths returns the row-id and posting-count widths of a chunk whose
// largest row id is maxID and whose longest posting holds maxCount ids.
func chunkWidths(maxID uint32, maxCount int) (w, c uint) {
	return uint(max(1, bits.Len32(maxID))), uint(bits.Len32(uint32(maxCount - 1)))
}

// payloadSize is the exact byte size of a payload of the given entries and
// rows at widths w and c.
func payloadSize(entries, rows uint64, w, c uint) uint64 {
	return 8*entries + (entries*uint64(c)+7)/8 + (rows*uint64(w)+7)/8
}

// encodeChunk serializes entries for dimension dim. Entries must be sorted
// ascending by value and non-empty.
func encodeChunk(dim int, entries []Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("chunkstore: refusing to encode an empty chunk")
	}
	if dim < 0 || dim > math.MaxUint16 {
		return nil, fmt.Errorf("chunkstore: dimension %d out of uint16 range", dim)
	}
	rows, maxID, maxCount := 0, uint32(0), 0
	prevValue := math.Inf(-1)
	for i, e := range entries {
		if len(e.Rows) == 0 {
			return nil, fmt.Errorf("chunkstore: entry %d has an empty posting list", i)
		}
		if !(e.Value > prevValue) {
			return nil, fmt.Errorf("chunkstore: entry %d value %g not strictly increasing after %g", i, e.Value, prevValue)
		}
		prevValue = e.Value
		for j := 1; j < len(e.Rows); j++ {
			if e.Rows[j] <= e.Rows[j-1] {
				return nil, fmt.Errorf("chunkstore: entry %d posting list not strictly increasing at %d", i, j)
			}
		}
		rows += len(e.Rows)
		maxID = max(maxID, e.Rows[len(e.Rows)-1])
		maxCount = max(maxCount, len(e.Rows))
	}
	if len(entries) > math.MaxUint32 || rows > math.MaxUint32 {
		return nil, fmt.Errorf("chunkstore: %d entries with %d row ids overflow a chunk header", len(entries), rows)
	}
	w, c := chunkWidths(maxID, maxCount)
	size := headerSize + int(payloadSize(uint64(len(entries)), uint64(rows), w, c)) + 4
	buf := make([]byte, headerSize, size)
	copy(buf, chunkMagic)
	binary.LittleEndian.PutUint16(buf[4:], ChunkVersion)
	binary.LittleEndian.PutUint16(buf[6:], uint16(dim))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(rows))
	buf[16], buf[17] = byte(w), byte(c)
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(entries[0].Value))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(entries[len(entries)-1].Value))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Value))
	}
	if c > 0 {
		var bw bitWriter
		for _, e := range entries {
			buf = bw.append(buf, uint32(len(e.Rows)-1), c)
		}
		buf = bw.flush(buf)
	}
	var bw bitWriter
	for _, e := range entries {
		for _, r := range e.Rows {
			buf = bw.append(buf, r, w)
		}
	}
	buf = bw.flush(buf)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// bitWriter packs values LSB-first: acc holds the n bits not yet written.
type bitWriter struct {
	acc uint64
	n   uint
}

func (b *bitWriter) append(buf []byte, v uint32, width uint) []byte {
	b.acc |= uint64(v) << b.n
	for b.n += width; b.n >= 8; b.n -= 8 {
		buf = append(buf, byte(b.acc))
		b.acc >>= 8
	}
	return buf
}

// flush writes the last partial byte, its unused bits zero.
func (b *bitWriter) flush(buf []byte) []byte {
	if b.n > 0 {
		buf = append(buf, byte(b.acc))
	}
	*b = bitWriter{}
	return buf
}

// errUnordered marks a CRC-valid chunk whose values or row ids do not
// strictly ascend. Every reader trusts that order — MergeChunks starts at
// the box's lower edge by binary search and stops at the first value past
// it — so the decoder refuses such a chunk, and Verify reports it as
// "order".
var errUnordered = errors.New("not strictly ascending")

// headerMismatch is a chunk whose header disagrees with its manifest
// record on field — "dim", "entries" or "row_refs" — which Verify reports
// under that name.
type headerMismatch struct {
	field     string
	got, want int
}

func (e *headerMismatch) Error() string {
	return fmt.Sprintf("chunkstore: chunk header says %s %d, manifest says %d", e.field, e.got, e.want)
}

// Postings is a decoded chunk as three flat columns: value Values[i] posts
// the ascending row ids Rows[Ends[i-1]:Ends[i]] (Rows[:Ends[0]] for i = 0).
// Its only pointers are arrays, which hold none, so a resident chunk is
// nothing the garbage collector scans. Ends is read-only: in a chunk of
// one-row postings it is a prefix of the process-wide identity column
// (identityEnds), shared by every such chunk, and only a chunk with a
// posting of several rows has ends of its own. A chunk decodes into two
// allocations fresh (three with ends of its own) and none reused.
type Postings struct {
	Values []float64
	Ends   []uint32
	Rows   []uint32
	// ends is the storage a multi-row chunk's Ends is unpacked into, kept
	// across decodes so a reused buffer that alternates between one-row
	// and multi-row chunks allocates nothing. It never aliases the
	// identity column.
	ends []uint32
}

// Bytes is the resident footprint of p: 8 bytes per value and 4 per row id,
// plus 4 per end when the ends are p's own — a chunk of one-row postings
// (as many row ids as values) shares them. It is what the block cache
// charges a resident chunk.
func (p Postings) Bytes() int64 {
	perValue := int64(12)
	if len(p.Rows) == len(p.Values) {
		perValue = 8
	}
	return perValue*int64(len(p.Values)) + 4*int64(len(p.Rows))
}

// identity is the identity column 1, 2, 3, …: a one-row chunk's Ends is a
// prefix of it. It grows only by publishing a longer array, filled before
// the swap, and no published array is written again, so any number of
// readers may hold prefixes of any generation while it grows.
var identity atomic.Pointer[[]uint32]

// identityEnds returns the ends of n one-row postings, 1…n, as a prefix of
// the identity column clipped to length n, so an append to it moves it.
func identityEnds(n int) []uint32 {
	for {
		cur := identity.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		size := n
		if cur != nil {
			size = max(n, 2*len(*cur))
		}
		col := make([]uint32, size)
		for i := range col {
			col[i] = uint32(i + 1)
		}
		// A racing grower may have published first; its column is taken
		// on the next pass if it is long enough.
		identity.CompareAndSwap(cur, &col)
	}
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

// decodeChunk parses a chunk and verifies its CRC. It returns the
// dimension the chunk belongs to and its postings, in storage of their own
// but for a one-row chunk's Ends, the shared identity column.
func decodeChunk(data []byte) (dim int, p Postings, err error) {
	dim, err = decodeChunkInto(data, &p, nil)
	return dim, p, err
}

// decodeChunkInto is decodeChunk into p, overwriting whatever p held and
// reusing its arrays where they are large enough. It never writes through
// p.Ends, which may be the identity column: a multi-row chunk's ends are
// unpacked into p's own end storage. When want is non-nil the
// header's dimension, entries and rows must be its Dim, Entries and
// RowRefs. Every count is checked against the payload's exact size before
// anything is allocated.
func decodeChunkInto(data []byte, p *Postings, want *ChunkMeta) (dim int, err error) {
	if len(data) < headerSize+4 {
		return 0, fmt.Errorf("chunkstore: chunk truncated: %d bytes", len(data))
	}
	if string(data[:4]) != chunkMagic {
		return 0, fmt.Errorf("chunkstore: bad magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != ChunkVersion {
		return 0, fmt.Errorf("chunkstore: unsupported chunk version %d", version)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, wantCRC := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != wantCRC {
		return 0, fmt.Errorf("chunkstore: chunk corrupted: crc %#x, want %#x", got, wantCRC)
	}
	dim = int(binary.LittleEndian.Uint16(body[6:8]))
	entries := binary.LittleEndian.Uint32(body[8:12])
	rows := binary.LittleEndian.Uint32(body[12:16])
	w, c := uint(body[16]), uint(body[17])
	// min/max at body[20:36] are redundant with the values; the manifest
	// records them from the entries, and decode re-derives them.
	if w < 1 || w > 32 || c > 32 || body[18]|body[19] != 0 {
		return 0, fmt.Errorf("chunkstore: bad widths: ids %d bits, counts %d bits, reserved %#x", w, c, body[18:20])
	}
	if want != nil {
		for _, f := range [...]headerMismatch{{"dim", dim, want.Dim}, {"entries", int(entries), want.Entries}, {"row_refs", int(rows), want.RowRefs}} {
			if f.got != f.want {
				return 0, &f
			}
		}
	}
	payload := body[headerSize:]
	if size := payloadSize(uint64(entries), uint64(rows), w, c); size != uint64(len(payload)) {
		return 0, fmt.Errorf("chunkstore: %d entries with %d row ids at %d+%d bits take %d bytes, payload has %d", entries, rows, w, c, size, len(payload))
	}
	if c == 0 && rows != entries {
		return 0, fmt.Errorf("chunkstore: %d row ids in %d one-row postings", rows, entries)
	}
	vals := payload[:8*uint64(entries)]
	counts := payload[len(vals) : uint64(len(vals))+(uint64(entries)*uint64(c)+7)/8]
	ids := payload[len(vals)+len(counts):]
	if !paddingZero(counts, uint64(entries)*uint64(c)) || !paddingZero(ids, uint64(rows)*uint64(w)) {
		return 0, fmt.Errorf("chunkstore: nonzero padding bits")
	}

	values := slices.Grow(p.Values[:0], int(entries))[:entries]
	if !kernel.AscendingInto(values, vals) {
		// Name the first value out of order. NaN ascends from nothing and
		// nothing ascends from it.
		last := math.Inf(-1)
		for i, v := range values {
			if !(v > last) {
				return 0, fmt.Errorf("chunkstore: entry %d value %g after %g: %w", i, v, last, errUnordered)
			}
			last = v
		}
	}
	own := p.ends
	var ends []uint32
	if c == 0 {
		ends = identityEnds(int(entries))
	} else {
		own = slices.Grow(own[:0], int(entries))[:entries]
		ends = own
		kernel.Unpack(ends, counts, c)
		sum := uint64(0)
		for i, n := range ends {
			sum += uint64(n) + 1
			ends[i] = uint32(sum)
		}
		if sum != uint64(rows) {
			return 0, fmt.Errorf("chunkstore: posting counts sum to %d, header says %d rows", sum, rows)
		}
	}
	ids32 := slices.Grow(p.Rows[:0], int(rows))[:rows]
	kernel.Unpack(ids32, ids, w)
	if c > 0 {
		start := uint32(0)
		for i, end := range ends {
			for j := start + 1; j < end; j++ {
				if ids32[j] <= ids32[j-1] {
					return 0, fmt.Errorf("chunkstore: entry %d posting %d: row %d after %d: %w", i, j-start, ids32[j], ids32[j-1], errUnordered)
				}
			}
			start = end
		}
	}
	*p = Postings{Values: values, Ends: ends, Rows: ids32, ends: own}
	return dim, nil
}

// paddingZero reports whether the bits of section past its first n are
// zero.
func paddingZero(section []byte, n uint64) bool {
	return n%8 == 0 || section[len(section)-1]>>(n%8) == 0
}
