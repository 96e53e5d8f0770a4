package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// uvarintCases are encodings around every place uvarint3 could differ from
// binary.Uvarint: each length boundary, the widest values, over-long and
// overflowing forms, and every truncation of each.
func uvarintCases() [][]byte {
	values := []uint64{0, math.MaxUint32, math.MaxUint64}
	for k := 1; k <= 9; k++ {
		values = append(values, 1<<(7*k)-1, 1<<(7*k))
	}
	var cases [][]byte
	for _, v := range values {
		enc := binary.AppendUvarint(nil, v)
		for cut := 0; cut <= len(enc); cut++ {
			cases = append(cases, enc[:cut])
		}
		// Over-long: the same value with padding continuation bytes, which
		// binary.Uvarint accepts up to ten bytes and rejects beyond.
		for pad := 1; pad <= 11; pad++ {
			long := append([]byte(nil), enc...)
			long[len(long)-1] |= 0x80
			for i := 1; i < pad; i++ {
				long = append(long, 0x80)
			}
			cases = append(cases, append(long, 0x00))
		}
	}
	// A tenth byte above 1 overflows 64 bits: n < 0.
	cases = append(cases, append(bytes.Repeat([]byte{0xff}, 9), 0x02), bytes.Repeat([]byte{0xff}, 12))
	return cases
}

// TestUvarintMatchesBinary places every case at every offset within four
// bytes of the end of a buffer (and with room to spare), after a prefix the
// parser must not read, and decodes it as the decoder does: uvarint3 on the
// next three bytes where there are three, binary.Uvarint where uvarint3
// declines. uvarint3 must agree with binary.Uvarint wherever it answers, and
// decline exactly the encodings longer than three bytes.
func TestUvarintMatchesBinary(t *testing.T) {
	for _, enc := range uvarintCases() {
		for tail := 0; tail <= 4; tail++ {
			for _, fill := range []byte{0x00, 0x7f, 0x80, 0xff} {
				buf := append([]byte{0xff, 0x80}, enc...)
				buf = append(buf, bytes.Repeat([]byte{fill}, tail)...)
				for off := 2; off+3 <= len(buf); off++ {
					wantV, wantN := binary.Uvarint(buf[off:])
					gotV, gotN := uvarint3(buf[off], buf[off+1], buf[off+2])
					if gotN == 0 && (wantN > 3 || wantN <= 0) {
						continue
					}
					if gotV != wantV || gotN != wantN {
						t.Fatalf("uvarint3(% x) = (%d, %d), binary.Uvarint(% x) says (%d, %d)", buf[off:off+3], gotV, gotN, buf[off:], wantV, wantN)
					}
				}
			}
		}
	}
}

// genChunk draws a codec-valid chunk of about target encoded bytes whose
// postings hold 1..maxRows row ids below n.
func genChunk(rng *rand.Rand, target, maxRows, n int) []Entry {
	var entries []Entry
	value := rng.NormFloat64()
	for size := 0; size < target; {
		value += rng.Float64() + 1e-9
		k := 1 + rng.Intn(maxRows)
		seen := make(map[uint32]bool, k)
		for len(seen) < k {
			seen[uint32(rng.Intn(n))] = true
		}
		rows := make([]uint32, 0, k)
		for id := range seen {
			rows = append(rows, id)
		}
		slices.Sort(rows)
		e := Entry{Value: value, Rows: rows}
		entries = append(entries, e)
		size += entryEncodedSize(e)
	}
	return entries
}

func rowRefs(entries []Entry) int {
	n := 0
	for _, e := range entries {
		n += len(e.Rows)
	}
	return n
}

// referenceDecode is the decoder as a plain reading of the format: every
// varint through binary.Uvarint, one Entry per value with row ids of its
// own, the checks in decodeChunkInto's order with its messages. The
// columnar decoder must agree with it on every input, error text included.
func referenceDecode(data []byte) (dim int, entries []Entry, err error) {
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
	if version := binary.LittleEndian.Uint16(body[4:6]); version != chunkVersion {
		return 0, nil, fmt.Errorf("chunkstore: unsupported chunk version %d", version)
	}
	dim = int(binary.LittleEndian.Uint16(body[6:8]))
	count := binary.LittleEndian.Uint32(body[8:12])
	payload := body[headerSize:]
	if uint64(count)*minEntrySize > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("chunkstore: %d entries cannot fit a %d-byte payload", count, len(payload))
	}
	off, last := 0, math.Inf(-1)
	for i := uint32(0); i < count; i++ {
		if off+8 > len(payload) {
			return 0, nil, fmt.Errorf("chunkstore: payload truncated at entry %d", i)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		if !(value > last) {
			return 0, nil, fmt.Errorf("chunkstore: entry %d value %g after %g: %w", i, value, last, errUnordered)
		}
		last = value
		rowCount, n := binary.Uvarint(payload[off:])
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
		rows := make([]uint32, rowCount)
		prev := uint64(0)
		for j := range rows {
			d, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return 0, nil, fmt.Errorf("chunkstore: bad row delta at entry %d posting %d", i, j)
			}
			off += n
			if j > 0 && d == 0 {
				return 0, nil, fmt.Errorf("chunkstore: entry %d posting %d repeats row %d: %w", i, j, prev, errUnordered)
			}
			if prev+d > math.MaxUint32 || prev+d < prev {
				return 0, nil, fmt.Errorf("chunkstore: row id overflow at entry %d", i)
			}
			prev += d
			rows[j] = uint32(prev)
		}
		entries = append(entries, Entry{Value: value, Rows: rows})
	}
	if off != len(payload) {
		return 0, nil, fmt.Errorf("chunkstore: %d trailing payload bytes", len(payload)-off)
	}
	return dim, entries, nil
}

// requireDecodeMatchesReference decodes data into p under hint and holds
// the result — dimension, postings or error text — to referenceDecode's. It
// returns the decode's error.
func requireDecodeMatchesReference(t *testing.T, what string, data []byte, p *Postings, hint int) error {
	t.Helper()
	wantDim, want, wantErr := referenceDecode(data)
	dim, err := decodeChunkInto(data, p, hint)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s hint %d: err = %v, the reference fails with %q", what, hint, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%s hint %d: %v; the reference decodes it", what, hint, err)
	case dim != wantDim || !entriesEqual(p.Entries(), want):
		t.Fatalf("%s hint %d: postings differ from the reference's", what, hint)
	case len(p.Ends) != len(p.Values) || len(p.Ends) > 0 && int(p.Ends[len(p.Ends)-1]) != len(p.Rows):
		t.Fatalf("%s hint %d: %d values and %d ends for %d row ids", what, hint, len(p.Values), len(p.Ends), len(p.Rows))
	}
	return err
}

// boundaryChunks are chunks whose row ids and deltas sit on each side of
// every varint length boundary, each once in the middle of the payload and
// once as its final varint, where the three-byte read falls through.
func boundaryChunks() [][]Entry {
	var ids []uint32
	for _, b := range []uint32{1 << 7, 1 << 14, 1 << 21, 1 << 28} {
		ids = append(ids, b-1, b, b+1)
	}
	ids = append(ids, math.MaxUint32-1, math.MaxUint32)
	var chunks [][]Entry
	for _, id := range ids {
		chunks = append(chunks,
			[]Entry{{Value: 0, Rows: []uint32{id}}, {Value: 1, Rows: []uint32{0, id}}, {Value: 2, Rows: []uint32{1, id}}, {Value: 3, Rows: []uint32{id - 1, id}}},
			[]Entry{{Value: -1, Rows: []uint32{3}}, {Value: 0.5, Rows: []uint32{id}}})
	}
	return chunks
}

// TestDecodeMatchesReference holds the columnar decoder to referenceDecode
// over generated chunks of one-row and multi-row postings, the varint
// boundary chunks, and CRC-valid truncations and byte flips of each, all
// decoded into one buffer that last held larger and smaller chunks, under
// honest, absent and lying hints.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	chunks := boundaryChunks()
	for _, target := range []int{64, 300, 4 << 10, 64 << 10, 1 << 10, 64, 16 << 10} {
		chunks = append(chunks, genChunk(rng, target, 1, 1<<22), genChunk(rng, target, 50, 1<<22))
	}
	p := new(Postings)
	for ci, in := range chunks {
		data, err := encodeChunk(ci%7, in)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("chunk %d", ci)
		for _, hint := range []int{0, rowRefs(in), 1, math.MaxInt, -1, math.MinInt} {
			requireDecodeMatchesReference(t, what, data, p, hint)
		}
		if !reflect.DeepEqual(p.Entries(), in) {
			t.Fatalf("%s: does not round-trip", what)
		}
		body := data[:len(data)-4]
		for k := 0; k < 8; k++ {
			cut := headerSize + rng.Intn(len(body)-headerSize)
			requireDecodeMatchesReference(t, fmt.Sprintf("%s cut at %d", what, cut), reseal(body[:cut]), p, rowRefs(in))
			flipped := bytes.Clone(body)
			pos := headerSize + rng.Intn(len(body)-headerSize)
			flipped[pos] ^= byte(1 + rng.Intn(255))
			requireDecodeMatchesReference(t, fmt.Sprintf("%s flipped at %d", what, pos), reseal(flipped), p, rowRefs(in))
		}
	}
}

// unorderedBodies are CRC-less chunk bodies the encoder never writes and a
// CRC would not catch: equal values, descending values, a NaN value, a row
// id repeated by a zero delta, and a ten-byte delta that wraps the running
// id past 2⁶⁴ back into range (5 + (2⁶⁴−1) = 4).
func unorderedBodies() map[string][]byte {
	chunk := func(postings ...[]byte) []byte {
		body := []byte(chunkMagic)
		body = binary.LittleEndian.AppendUint16(body, chunkVersion)
		body = binary.LittleEndian.AppendUint16(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(postings)))
		body = binary.LittleEndian.AppendUint64(body, 0)
		body = binary.LittleEndian.AppendUint64(body, 0)
		for _, p := range postings {
			body = append(body, p...)
		}
		return body
	}
	posting := func(v float64, deltas ...uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		b = binary.AppendUvarint(b, uint64(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
		}
		return b
	}
	return map[string][]byte{
		"equal-values":      chunk(posting(1, 0), posting(1, 1)),
		"descending-values": chunk(posting(2, 0), posting(1, 1)),
		"nan-value":         chunk(posting(1, 0), posting(math.NaN(), 1), posting(2, 2)),
		"zero-row-delta":    chunk(posting(1, 3, 0)),
		"wrapping-delta":    chunk(posting(1, 5, math.MaxUint64)),
	}
}

// TestDecodeRejectsUnorderedChunks: each of the five decodes without error
// at the parent commit of this test, and MergeChunks, which stops at the
// first value past the box, would drop in-box postings behind it.
func TestDecodeRejectsUnorderedChunks(t *testing.T) {
	for name, body := range unorderedBodies() {
		data := reseal(body)
		_, _, err := decodeChunk(data)
		if name == "wrapping-delta" {
			if err == nil || !strings.Contains(err.Error(), "row id overflow") {
				t.Errorf("%s: err = %v, want a row id overflow", name, err)
			}
		} else if !errors.Is(err, errUnordered) {
			t.Errorf("%s: err = %v, want one wrapping errUnordered", name, err)
		}
		requireDecodeMatchesReference(t, name, data, new(Postings), 0)
	}
}

// TestDecodeIntoDirtyBuffer decodes generated chunks into one buffer that
// last held larger and smaller chunks, under honest, absent and lying
// hints: the postings must be decodeChunk's, and no posting list of the
// Entries view may be able to grow into its neighbour.
func TestDecodeIntoDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var chunks [][]Entry
	for _, target := range []int{64, 300, 4 << 10, 64 << 10, 1 << 10, 64, 16 << 10} {
		chunks = append(chunks, genChunk(rng, target, 1, 1<<22), genChunk(rng, target, 50, 1<<22))
	}
	buf := new(Postings)
	for round := 0; round < 2; round++ {
		for ci, in := range chunks {
			data, err := encodeChunk(ci%7, in)
			if err != nil {
				t.Fatal(err)
			}
			wantDim, fresh, err := decodeChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Entries()
			if !reflect.DeepEqual(want, in) {
				t.Fatalf("chunk %d: decodeChunk does not round-trip", ci)
			}
			for _, hint := range []int{0, rowRefs(in), 1, math.MaxInt, -1, math.MinInt} {
				dim, err := decodeChunkInto(data, buf, hint)
				if err != nil {
					t.Fatalf("chunk %d hint %d: %v", ci, hint, err)
				}
				got := buf.Entries()
				if dim != wantDim || !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d hint %d: decodeChunkInto differs from decodeChunk", ci, hint)
				}
				for i := range got {
					if len(got[i].Rows) != cap(got[i].Rows) {
						t.Fatalf("chunk %d hint %d entry %d: Rows has spare capacity %d", ci, hint, i, cap(got[i].Rows)-len(got[i].Rows))
					}
				}
				// Appending must move the list, not write the next one.
				for i := 0; i+1 < len(got); i++ {
					_ = append(got[i].Rows, math.MaxUint32)
				}
				if !reflect.DeepEqual(buf.Entries(), want) {
					t.Fatalf("chunk %d hint %d: append to a posting list altered a neighbour", ci, hint)
				}
			}
		}
	}
}

// TestDecodeHintCannotSizeAllocation gives a small chunk the largest hint
// there is: Rows stays within what its payload could encode.
func TestDecodeHintCannotSizeAllocation(t *testing.T) {
	data, err := encodeChunk(0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	p := new(Postings)
	if _, err := decodeChunkInto(data, p, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	if cap(p.Rows) > len(data) {
		t.Fatalf("Rows of %d row ids for a %d-byte chunk", cap(p.Rows), len(data))
	}
}

// BenchmarkDecodeChunk decodes chunks shaped like the benchmark stores'
// (64 KB target over 50 000 rows): "one-row" is a real-valued dimension,
// 5 400 one-row postings; "field" is the integer dimension, ≈ 50 rows per
// value with two-byte deltas. fresh is what an owning read or a cache miss
// pays, reused what every chunk of a ReadChunksOrdered call pays.
func BenchmarkDecodeChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var oneRow, field []Entry
	value := 0.0
	for i := 0; i < 5400; i++ {
		value += rng.Float64() + 1e-9
		oneRow = append(oneRow, Entry{Value: value, Rows: []uint32{uint32(rng.Intn(50_000))}})
	}
	for v, size := 0, 0; size < 63<<10; v++ {
		rows := make([]uint32, 0, 50)
		for id := uint32(rng.Intn(1000)); id < 50_000 && len(rows) < cap(rows); id += 1 + uint32(rng.Intn(1999)) {
			rows = append(rows, id)
		}
		e := Entry{Value: float64(v), Rows: rows}
		field = append(field, e)
		size += entryEncodedSize(e)
	}
	for _, shape := range []struct {
		name    string
		entries []Entry
	}{{"one-row", oneRow}, {"field", field}} {
		data, err := encodeChunk(0, shape.entries)
		if err != nil {
			b.Fatal(err)
		}
		hint := rowRefs(shape.entries)
		run := func(b *testing.B, buf func() *Postings) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeChunkInto(data, buf(), hint); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(shape.entries)), "ns/posting")
		}
		b.Run(shape.name+"/fresh", func(b *testing.B) { run(b, func() *Postings { return new(Postings) }) })
		reused := new(Postings)
		b.Run(shape.name+"/reused", func(b *testing.B) { run(b, func() *Postings { return reused }) })
	}
}
