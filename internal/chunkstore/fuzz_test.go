package chunkstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"slices"
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
				// decode checks what encode checks: at least one entry,
				// values and row ids strictly ascending, no empty posting.
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
// than their bytes hold: 2³²−1 row ids in one posting, and 2³²−1 one-row
// entries, ahead of a 1-byte payload. Allocating what they ask for would take tens
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
	binary.LittleEndian.PutUint32(entries[12:16], math.MaxUint32)
	return [][]byte{rows, entries}
}

// TestDecodeBoundsCountsBeforeAllocating: the payload's exact size, from
// the header's counts and widths in 64-bit arithmetic, is checked before
// anything is sized from them.
func TestDecodeBoundsCountsBeforeAllocating(t *testing.T) {
	for i, body := range oversizedCountBodies(t) {
		_, _, err := decodeChunk(reseal(body))
		if err == nil || !strings.Contains(err.Error(), "payload has 1") {
			t.Errorf("oversized count %d: err = %v, want the exact-size refusal", i, err)
		}
	}
}

// FuzzDecodeResealed feeds the decoder bodies that pass the CRC whatever
// they say: it must return — an error or postings — without panicking and
// without building more than the bytes can encode (at value-gap width 0
// an entry's only bits are its row id's, at least one), and agree with referenceDecode on
// the postings or the error text. Every body is decoded fresh and again
// into the buffer the previous iteration left behind: storage may change
// where the result lives, never what it is. After each decode the
// identity column reads 1, 2, 3, …, a one-row chunk's ends are a prefix of
// it, and the one-row ends of the previous iteration, which each iteration
// leaves behind in an older generation of the column, still read 1…n.
// testdata/fuzz/FuzzDecodeResealed holds the chunks the ordering, padding
// and count checks refuse (unorderedBodies).
func FuzzDecodeResealed(f *testing.F) {
	for _, body := range oversizedCountBodies(f) {
		f.Add(body)
	}
	oneRow, err := encodeChunk(1, []Entry{{Value: -3, Rows: []uint32{4}}, {Value: 0, Rows: []uint32{1}}, {Value: 2, Rows: []uint32{9}}})
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(oneRow[:len(oneRow)-4])
	seed, err := encodeChunk(2, []Entry{{Value: -3, Rows: []uint32{1}}, {Value: 8.5, Rows: []uint32{0, 300, 70000}}})
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(seed[:len(seed)-4])
	f.Add([]byte(chunkMagic))

	reused := new(Postings)
	var earlier [][]uint32
	f.Fuzz(func(t *testing.T, body []byte) {
		// Each iteration starts a new generation of the column, so the
		// buffer the previous one left may hold a prefix of a generation
		// no longer current: no decode may write through it.
		identity.Store(nil)
		data := reseal(body)
		fresh := new(Postings)
		requireDecodeMatchesReference(t, "fresh", data, fresh)
		requireIdentityPrefix(t, "fresh", fresh)
		err := requireDecodeMatchesReference(t, "into a used buffer", data, reused)
		if err == nil {
			// A failed decode leaves the buffer as it was.
			requireIdentityPrefix(t, "into a used buffer", reused)
		}
		for _, ends := range earlier {
			if msg := identityBroken(ends); msg != "" {
				t.Fatalf("the previous iteration's one-row ends changed: %s", msg)
			}
		}
		earlier = earlier[:0]
		for _, p := range []*Postings{fresh, reused} {
			if len(p.Values) > 0 && len(p.Rows) == len(p.Values) {
				earlier = append(earlier, p.Ends)
			}
		}
		if err != nil {
			return
		}
		if need := payloadSize(uint64(len(reused.Values)), uint64(len(reused.Rows)), 0, 1, 0); need > uint64(len(body)-headerSize) {
			t.Fatalf("decoded %d entries with %d row ids out of a %d-byte payload", len(reused.Values), len(reused.Rows), len(body)-headerSize)
		}
	})
}

// FuzzLoadManifest feeds JSON bodies to the manifest loader, which must
// return without panicking; in a manifest it accepts, each dimension's
// chunks are filed under their own dimension and sequence, carry the name
// the loader gives them — whatever "file" key the JSON holds — and extents
// that tile [0, Σ Bytes) of the data file without overflow, and keep their
// value ranges disjoint and ascending.
func FuzzLoadManifest(f *testing.F) {
	st, _ := lumpyStore(f, 300, 2, 40, 128, 1)
	good, err := json.Marshal(st.manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"format_version":4`), []byte(`"format_version":3`), 1))
	f.Add(bytes.Replace(good, []byte(`{"dim":0,"seq":1,`), []byte(`{"file":"../x","dim":0,"seq":1,`), 1))
	f.Add([]byte(`{"format_version":4,"columns":["a"],"row_count":1,"chunks":[[{"dim":0,"seq":0,"entries":1,"row_refs":1,"bytes":41}]],"min_values":[0],"max_values":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		for d, chunks := range m.Chunks {
			var end int64
			for i, c := range chunks {
				if c.File != chunkName(d, i) || c.Dim != d || c.Seq != i {
					t.Fatalf("accepted chunk %q (dim %d seq %d) at [%d][%d]", c.File, c.Dim, c.Seq, d, i)
				}
				if c.Offset != end || c.Bytes <= 0 || c.Bytes > math.MaxInt64-end {
					t.Fatalf("accepted dimension %d chunk %d at [%d, +%d) after extents ending at %d", d, i, c.Offset, c.Bytes, end)
				}
				end += c.Bytes
				if !(c.MinValue <= c.MaxValue) || i > 0 && !(chunks[i-1].MaxValue < c.MinValue) {
					t.Fatalf("accepted dimension %d chunk %d over [%g, %g] after one ending at %g", d, i, c.MinValue, c.MaxValue, chunks[max(i-1, 0)].MaxValue)
				}
			}
		}
	})
}

// FuzzSortPairs holds the writer's radix sort to its definition: on finite
// values with ascending ids it must leave exactly what slices.SortFunc with
// comparePairs leaves, value bits and ids alike, whether its scratch starts
// short (and grows) or long enough. The committed corpus covers mixed ±0,
// values repeated across many ids, subnormals, ±MaxFloat64, all-equal
// input, and sorted and reversed input.
func FuzzSortPairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v := pairsFromRecipe(data)
		want := slices.Clone(v)
		slices.SortFunc(want, comparePairs)
		for _, scratch := range [][]pair{
			make([]pair, len(v)/2),
			make([]pair, len(v)+3),
		} {
			for i := range scratch {
				scratch[i] = pair{value: -1, id: math.MaxUint32} // stale pairs from an earlier sort
			}
			got := slices.Clone(v)
			sortPairs(got, scratch)
			for i := range want {
				if math.Float64bits(got[i].value) != math.Float64bits(want[i].value) || got[i].id != want[i].id {
					t.Fatalf("scratch %d: pair %d is (%v, %d), want (%v, %d)", len(scratch), i, got[i].value, got[i].id, want[i].value, want[i].id)
				}
			}
		}
	})
}

// pairsFromRecipe derives pairs with ascending ids and finite values from
// arbitrary bytes. Each pair starts with an op byte: with its top bit set
// and a pair already made, it repeats an earlier pair's value (index op
// bits 2-6); otherwise the next eight bytes are the value's bits, skipped
// when they are not finite, as the writer refuses those. The op's low two
// bits widen the gap to the next id.
func pairsFromRecipe(data []byte) []pair {
	var v []pair
	id := uint32(0)
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		var x float64
		if op&0x80 != 0 && len(v) > 0 {
			x = v[int(op>>2&0x1f)%len(v)].value
		} else {
			if len(data) < 8 {
				break
			}
			x = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		}
		v = append(v, pair{value: x, id: id})
		id += 1 + uint32(op&3)
	}
	return v
}
