package chunkstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// FuzzCodecRoundTrip exercises the chunk codec from both ends. The raw
// fuzz input is fed straight into decodeChunk, which must never panic and
// must reject anything that does not re-encode to the same entries; the
// same input is also interpreted as a construction recipe for a valid
// chunk, which must survive encode→decode byte-exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed corpus: one real encoded chunk, a truncated header, and junk.
	seed, err := encodeChunk(3, []Entry{
		{Value: -1.5, Rows: []uint32{0, 7, 9}},
		{Value: 0, Rows: []uint32{2}},
		{Value: 42.25, Rows: []uint32{1, 2, 3, math.MaxUint32}},
	})
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("UEIC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: decode is total — it may error, never panic — and
		// any chunk it accepts round-trips through encode.
		if dim, p, err := decodeChunk(data); err == nil {
			entries := p.Entries()
			reenc, err := encodeChunk(dim, entries)
			if err != nil {
				// decode checks what encode checks — values and row ids
				// strictly ascending, no empty posting — but accepts a
				// chunk of no entries, which encode refuses.
				if len(entries) == 0 {
					return
				}
				t.Fatalf("decoded chunk not re-encodable: %v", err)
			}
			dim2, p2, err := decodeChunk(reenc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if dim2 != dim || !entriesEqual(entries, p2.Entries()) {
				t.Fatalf("decode(encode(decode(x))) != decode(x)")
			}
		}

		// Property 2: interpret the input as a recipe for a valid chunk;
		// encode→decode must reproduce it exactly.
		dim, entries := chunkFromRecipe(data)
		if len(entries) == 0 {
			return
		}
		enc, err := encodeChunk(dim, entries)
		if err != nil {
			t.Fatalf("encode of valid chunk failed: %v", err)
		}
		gotDim, got, err := decodeChunk(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded chunk failed: %v", err)
		}
		if gotDim != dim {
			t.Fatalf("dim round-trip: got %d, want %d", gotDim, dim)
		}
		if !entriesEqual(entries, got.Entries()) {
			t.Fatalf("entries did not round-trip")
		}
	})
}

// chunkFromRecipe deterministically derives a codec-valid chunk (strictly
// increasing finite values, non-empty strictly increasing posting lists)
// from arbitrary bytes.
func chunkFromRecipe(data []byte) (dim int, entries []Entry) {
	if len(data) == 0 {
		return 0, nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 1
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dim = int(next()) % 64
	n := 1 + int(next())%16
	value := -float64(next())
	for i := 0; i < n; i++ {
		value += 1 + float64(next())/16
		rows := make([]uint32, 0, 4)
		id := uint32(next())
		k := 1 + int(next())%4
		for j := 0; j < k; j++ {
			rows = append(rows, id)
			id += 1 + uint32(next())*uint32(next())
		}
		entries = append(entries, Entry{Value: value, Rows: rows})
	}
	return dim, entries
}

// entriesEqual compares decoded entries, distinguishing float bit patterns
// (so ±0 and NaN payloads must survive the trip).
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
		if len(a[i].Rows) != len(b[i].Rows) {
			return false
		}
		for j := range a[i].Rows {
			if a[i].Rows[j] != b[i].Rows[j] {
				return false
			}
		}
	}
	return true
}

// TestCodecFuzzSeedsRoundTrip keeps the fuzz harness exercised in plain
// `go test` runs (CI's fuzz job runs FuzzCodecRoundTrip with a time
// budget; this guards the harness itself).
func TestCodecFuzzSeedsRoundTrip(t *testing.T) {
	recipes := [][]byte{
		{},
		{0},
		{9, 4, 200, 17, 3, 2, 1, 0, 255, 254, 253},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for _, r := range recipes {
		dim, entries := chunkFromRecipe(r)
		if len(entries) == 0 {
			continue
		}
		enc, err := encodeChunk(dim, entries)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		gotDim, got, err := decodeChunk(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotDim != dim || !entriesEqual(entries, got.Entries()) {
			t.Fatalf("round trip failed for recipe %v", r)
		}
	}
}

// reseal appends the CRC a writer that meant exactly these bytes would
// have written, so what follows the checksum in decodeChunk gets input a
// random mutation would never carry past it.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// oversizedCountBodies are CRC-valid chunks whose counts promise far more
// than their bytes hold: 2³²−1 row ids in one posting, and 2³²−1 entries
// ahead of a 9-byte payload. Allocating what they ask for would take tens
// of gigabytes.
func oversizedCountBodies(t testing.TB) [][]byte {
	good, err := encodeChunk(0, []Entry{{Value: 1, Rows: []uint32{3}}})
	if err != nil {
		t.Fatalf("seed encode: %v", err)
	}
	rows := bytes.Clone(good[:len(good)-4])
	binary.LittleEndian.PutUint32(rows[12:16], math.MaxUint32)
	rows[17] = 32
	entries := bytes.Clone(good[:len(good)-4])
	binary.LittleEndian.PutUint32(entries[8:12], math.MaxUint32)
	return [][]byte{rows, entries}
}

// TestDecodeBoundsCountsBeforeAllocating: the payload's exact size, from
// the header's counts and widths in 64-bit arithmetic, is checked before
// anything is sized from them.
func TestDecodeBoundsCountsBeforeAllocating(t *testing.T) {
	for i, body := range oversizedCountBodies(t) {
		_, _, err := decodeChunk(reseal(body))
		if err == nil || !strings.Contains(err.Error(), "payload has 9") {
			t.Errorf("oversized count %d: err = %v, want the exact-size refusal", i, err)
		}
	}
}

// FuzzDecodeResealed feeds the decoder bodies that pass the CRC whatever
// they say: it must return — an error or postings — without panicking and
// without building more than the bytes can encode (an entry takes eight
// bytes and a row id at least one bit), and agree with referenceDecode on
// the postings or the error text. Every body is decoded fresh and again
// into the buffer the previous iteration left behind: storage may change
// where the result lives, never what it is.
// testdata/fuzz/FuzzDecodeResealed holds the chunks the ordering, padding
// and count checks refuse (unorderedBodies).
func FuzzDecodeResealed(f *testing.F) {
	for _, body := range oversizedCountBodies(f) {
		f.Add(body)
	}
	seed, err := encodeChunk(2, []Entry{{Value: -3, Rows: []uint32{1}}, {Value: 8.5, Rows: []uint32{0, 300, 70000}}})
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(seed[:len(seed)-4])
	f.Add([]byte(chunkMagic))

	reused := new(Postings)
	f.Fuzz(func(t *testing.T, body []byte) {
		data := reseal(body)
		requireDecodeMatchesReference(t, "fresh", data, new(Postings))
		if requireDecodeMatchesReference(t, "into a used buffer", data, reused) != nil {
			return
		}
		if need := payloadSize(uint64(len(reused.Values)), uint64(len(reused.Rows)), 1, 0); need > uint64(len(body)-headerSize) {
			t.Fatalf("decoded %d entries with %d row ids out of a %d-byte payload", len(reused.Values), len(reused.Rows), len(body)-headerSize)
		}
	})
}

// FuzzLoadManifest feeds JSON bodies to the manifest loader, which must
// return without panicking; a manifest it accepts names every chunk as
// writeChunkFile does, files it under its own dimension and sequence, and keeps
// each dimension's value ranges disjoint and ascending.
func FuzzLoadManifest(f *testing.F) {
	st, _ := lumpyStore(f, 300, 2, 40, 128, 1)
	good, err := json.Marshal(st.manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"format_version":2`), []byte(`"format_version":1`), 1))
	f.Add(bytes.Replace(good, []byte(`"d00_c00001.chk"`), []byte(`"../x"`), 1))
	f.Add([]byte(`{"format_version":2,"columns":["a"],"row_count":1,"chunks":[[{"file":"d00_c00000.chk","entries":1,"row_refs":1,"bytes":49}]],"min_values":[0],"max_values":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		for d, chunks := range m.Chunks {
			for i, c := range chunks {
				if c.File != chunkFileName(d, i) || c.Dim != d || c.Seq != i {
					t.Fatalf("accepted chunk %q (dim %d seq %d) at [%d][%d]", c.File, c.Dim, c.Seq, d, i)
				}
				if !(c.MinValue <= c.MaxValue) || i > 0 && !(chunks[i-1].MaxValue < c.MinValue) {
					t.Fatalf("accepted dimension %d chunk %d over [%g, %g] after one ending at %g", d, i, c.MinValue, c.MaxValue, chunks[max(i-1, 0)].MaxValue)
				}
			}
		}
	})
}
