package chunkstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// uvarintCases are encodings around every place uvarint could differ from
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
// parser must not read.
func TestUvarintMatchesBinary(t *testing.T) {
	for _, enc := range uvarintCases() {
		for tail := 0; tail <= 4; tail++ {
			for _, fill := range []byte{0x00, 0x7f, 0x80, 0xff} {
				buf := append([]byte{0xff, 0x80}, enc...)
				buf = append(buf, bytes.Repeat([]byte{fill}, tail)...)
				for off := 2; off <= len(buf); off++ {
					wantV, wantN := binary.Uvarint(buf[off:])
					gotV, gotN := uvarint(buf, off)
					if gotV != wantV || gotN != wantN {
						t.Fatalf("uvarint(% x, %d) = (%d, %d), binary.Uvarint says (%d, %d)", buf, off, gotV, gotN, wantV, wantN)
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

// TestDecodeIntoDirtyBuffer decodes generated chunks into one buffer that
// last held larger and smaller chunks, under honest, absent and lying
// hints: the entries must be decodeChunk's, and no posting list may be
// able to grow into its neighbour.
func TestDecodeIntoDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var chunks [][]Entry
	for _, target := range []int{64, 300, 4 << 10, 64 << 10, 1 << 10, 64, 16 << 10} {
		chunks = append(chunks, genChunk(rng, target, 1, 1<<22), genChunk(rng, target, 50, 1<<22))
	}
	buf := new(decodeBuf)
	for round := 0; round < 2; round++ {
		for ci, in := range chunks {
			data, err := encodeChunk(ci%7, in)
			if err != nil {
				t.Fatal(err)
			}
			wantDim, want, err := decodeChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, in) {
				t.Fatalf("chunk %d: decodeChunk does not round-trip", ci)
			}
			for _, hint := range []int{0, rowRefs(in), 1, math.MaxInt, -1, math.MinInt} {
				dim, got, err := decodeChunkInto(data, buf, hint)
				if err != nil {
					t.Fatalf("chunk %d hint %d: %v", ci, hint, err)
				}
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
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d hint %d: append to a posting list altered a neighbour", ci, hint)
				}
			}
		}
	}
}

// TestDecodeHintCannotSizeAllocation gives a small chunk the largest hint
// there is: the arena stays within what its payload could encode.
func TestDecodeHintCannotSizeAllocation(t *testing.T) {
	data, err := encodeChunk(0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	buf := new(decodeBuf)
	if _, _, err := decodeChunkInto(data, buf, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	if cap(buf.arena) > len(data) {
		t.Fatalf("arena of %d row ids for a %d-byte chunk", cap(buf.arena), len(data))
	}
}

// BenchmarkDecodeChunk decodes a chunk shaped like the benchmark stores'
// (5 400 one-row postings, ≈ 63 KB): fresh is what an owning read or a
// cache miss pays, reused what every chunk of a ReadChunksOrdered call pays.
func BenchmarkDecodeChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var entries []Entry
	value := 0.0
	for i := 0; i < 5400; i++ {
		value += rng.Float64() + 1e-9
		entries = append(entries, Entry{Value: value, Rows: []uint32{uint32(rng.Intn(50_000))}})
	}
	data, err := encodeChunk(0, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeChunkInto(data, new(decodeBuf), len(entries)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		buf := new(decodeBuf)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeChunkInto(data, buf, len(entries)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
