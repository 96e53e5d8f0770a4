package chunkstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEntries() []Entry {
	return []Entry{
		{Value: -3.5, Rows: []uint32{0, 7, 900000}},
		{Value: 0, Rows: []uint32{3}},
		{Value: 12.25, Rows: []uint32{1, 2, 3, 4}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := sampleEntries()
	data, err := encodeChunk(2, in)
	if err != nil {
		t.Fatal(err)
	}
	dim, out, err := decodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 2 {
		t.Errorf("dim = %d", dim)
	}
	assertEntriesEqual(t, in, out.Entries())
}

func assertEntriesEqual(t *testing.T, want, got []Entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("entry count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Value != got[i].Value {
			t.Fatalf("entry %d value %g, want %g", i, got[i].Value, want[i].Value)
		}
		if len(want[i].Rows) != len(got[i].Rows) {
			t.Fatalf("entry %d posting count %d, want %d", i, len(got[i].Rows), len(want[i].Rows))
		}
		for j := range want[i].Rows {
			if want[i].Rows[j] != got[i].Rows[j] {
				t.Fatalf("entry %d posting %d = %d, want %d", i, j, got[i].Rows[j], want[i].Rows[j])
			}
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := encodeChunk(0, nil); err == nil {
		t.Error("empty chunk should fail")
	}
	if _, err := encodeChunk(0, []Entry{{Value: 1, Rows: nil}}); err == nil {
		t.Error("empty posting list should fail")
	}
	if _, err := encodeChunk(0, []Entry{{Value: 1, Rows: []uint32{1}}, {Value: 1, Rows: []uint32{2}}}); err == nil {
		t.Error("duplicate value should fail")
	}
	if _, err := encodeChunk(0, []Entry{{Value: 2, Rows: []uint32{1}}, {Value: 1, Rows: []uint32{2}}}); err == nil {
		t.Error("descending values should fail")
	}
	// NaN compares false either way, so it must not pass as ascending —
	// nor let a descending value after it through.
	if _, err := encodeChunk(0, []Entry{{Value: 1, Rows: []uint32{1}}, {Value: math.NaN(), Rows: []uint32{2}}, {Value: 0.5, Rows: []uint32{3}}}); err == nil {
		t.Error("NaN value should fail")
	}
	if _, err := encodeChunk(0, []Entry{{Value: math.NaN(), Rows: []uint32{1}}}); err == nil {
		t.Error("a lone NaN value should fail")
	}
	if _, err := encodeChunk(0, []Entry{{Value: 1, Rows: []uint32{5, 5}}}); err == nil {
		t.Error("non-increasing posting list should fail")
	}
	if _, err := encodeChunk(-1, sampleEntries()); err == nil {
		t.Error("negative dim should fail")
	}
	if _, err := encodeChunk(1<<17, sampleEntries()); err == nil {
		t.Error("oversized dim should fail")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	data, err := encodeChunk(0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: CRC must catch it.
	for _, pos := range []int{0, 5, headerSize + 1, len(data) - 5} {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xff
		if _, _, err := decodeChunk(corrupt); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		}
	}
	// Truncation.
	if _, _, err := decodeChunk(data[:10]); err == nil {
		t.Error("truncated chunk should fail")
	}
	if _, _, err := decodeChunk(nil); err == nil {
		t.Error("empty buffer should fail")
	}
}

// TestDecodeRejectsWrongMagicAndVersion: a bad magic is refused under a
// valid CRC, and a chunk a version-1 writer made — varint postings, an IEEE
// CRC — is refused by its version, before a checksum of another polynomial
// could call it corrupt.
func TestDecodeRejectsWrongMagicAndVersion(t *testing.T) {
	data, err := encodeChunk(0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data[:len(data)-4])
	copy(bad, "NOPE")
	if _, _, err := decodeChunk(reseal(bad)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	if _, _, err := decodeChunk(v1Chunk(0, sampleEntries())); err == nil || err.Error() != "chunkstore: unsupported chunk version 1" {
		t.Errorf("version-1 chunk: err = %v", err)
	}
}

// v1Chunk lays entries out as a version-1 writer did: a 28-byte header
// (magic, version, dim, entries, min, max), per posting a value, a varint
// row count and varint row-id deltas, then an IEEE CRC.
func v1Chunk(dim int, entries []Entry) []byte {
	b := []byte(chunkMagic)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(entries[0].Value))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(entries[len(entries)-1].Value))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Value))
		b = binary.AppendUvarint(b, uint64(len(e.Rows)))
		prev := uint32(0)
		for _, r := range e.Rows {
			b = binary.AppendUvarint(b, uint64(r-prev))
			prev = r
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestEntryEncodedSizeMatchesCodec: the payload size the chunk cutter
// tracks for its pending entries is the encoder's, byte for byte, for
// one-row and multi-row chunks at every id width.
func TestEntryEncodedSizeMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sets := append([][]Entry{sampleEntries()}, boundaryChunks(rng)...)
	for _, target := range []int{64, 300, 4 << 10} {
		sets = append(sets, genChunk(rng, target, 1, 1<<22), genChunk(rng, target, 50, 1<<22))
	}
	for i, entries := range sets {
		cut := chunkCutter{target: math.MaxInt}
		for _, e := range entries {
			if err := cut.add(e); err != nil {
				t.Fatal(err)
			}
		}
		data, err := encodeChunk(0, entries)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cut.payload(), uint64(len(data)-headerSize-4); got != want {
			t.Errorf("chunk %d: the cutter counts %d payload bytes, the encoder writes %d", i, got, want)
		}
	}
}

// randomEntries builds a valid random entry slice for property tests.
func randomEntries(rng *rand.Rand) []Entry {
	n := 1 + rng.Intn(40)
	entries := make([]Entry, 0, n)
	v := rng.NormFloat64() * 100
	for i := 0; i < n; i++ {
		v += 0.001 + rng.Float64()*10
		rows := make([]uint32, 0, 1+rng.Intn(8))
		id := uint32(rng.Intn(1000))
		for j := 0; j < cap(rows); j++ {
			rows = append(rows, id)
			id += 1 + uint32(rng.Intn(100000))
		}
		entries = append(entries, Entry{Value: v, Rows: rows})
	}
	return entries
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomEntries(rng)
		dim := rng.Intn(64)
		data, err := encodeChunk(dim, in)
		if err != nil {
			return false
		}
		gotDim, p, err := decodeChunk(data)
		out := p.Entries()
		if err != nil || gotDim != dim || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i].Value != out[i].Value || len(in[i].Rows) != len(out[i].Rows) {
				return false
			}
			for j := range in[i].Rows {
				if in[i].Rows[j] != out[i].Rows[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	f := func(seed int64, flipByte uint16, flipBit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data, err := encodeChunk(0, randomEntries(rng))
		if err != nil {
			return false
		}
		pos := int(flipByte) % len(data)
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 1 << (flipBit % 8)
		_, _, err = decodeChunk(corrupt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
