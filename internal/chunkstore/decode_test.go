package chunkstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// genChunk draws a codec-valid chunk of about target payload bytes whose
// postings hold 1..maxRows row ids below n.
func genChunk(rng *rand.Rand, target, maxRows, n int) []Entry {
	cut := chunkCutter{target: math.MaxInt}
	value := rng.NormFloat64()
	for cut.payload() < uint64(target) {
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
		if err := cut.add(Entry{Value: value, Rows: rows}); err != nil {
			panic(err)
		}
	}
	return cut.pending
}

// bitReader reads a packed section the way the format is written down:
// one bit at a time, LSB-first, item k at bits [k·w, (k+1)·w).
type bitReader struct {
	b   []byte
	pos uint64
}

func (r *bitReader) read(width uint) uint64 {
	v := uint64(0)
	for i := uint(0); i < width; i++ {
		v |= uint64(r.b[r.pos/8]>>(r.pos%8)&1) << i
		r.pos++
	}
	return v
}

// referenceDecode is the decoder as a plain reading of the format: every
// field through bitReader, one Entry per value with row ids of its own, the
// checks in decodeChunkInto's order with its messages. The columnar
// decoder must agree with it on every input, error text included.
func referenceDecode(data []byte) (dim int, entries []Entry, err error) {
	if len(data) < headerSize+4 {
		return 0, nil, fmt.Errorf("chunkstore: chunk truncated: %d bytes", len(data))
	}
	if string(data[:4]) != chunkMagic {
		return 0, nil, fmt.Errorf("chunkstore: bad magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != ChunkVersion {
		return 0, nil, fmt.Errorf("chunkstore: unsupported chunk version %d", version)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)), binary.LittleEndian.Uint32(tail); got != want {
		return 0, nil, fmt.Errorf("chunkstore: chunk corrupted: crc %#x, want %#x", got, want)
	}
	dim = int(binary.LittleEndian.Uint16(body[6:8]))
	n := uint64(binary.LittleEndian.Uint32(body[8:12]))
	rows := uint64(binary.LittleEndian.Uint32(body[12:16]))
	w, c := uint(body[16]), uint(body[17])
	if w < 1 || w > 32 || c > 32 || body[18] != 0 || body[19] != 0 {
		return 0, nil, fmt.Errorf("chunkstore: bad widths: ids %d bits, counts %d bits, reserved %#x", w, c, body[18:20])
	}
	payload := body[headerSize:]
	countBytes, idBytes := (n*uint64(c)+7)/8, (rows*uint64(w)+7)/8
	if size := 8*n + countBytes + idBytes; size != uint64(len(payload)) {
		return 0, nil, fmt.Errorf("chunkstore: %d entries with %d row ids at %d+%d bits take %d bytes, payload has %d", n, rows, w, c, size, len(payload))
	}
	if c == 0 && rows != n {
		return 0, nil, fmt.Errorf("chunkstore: %d row ids in %d one-row postings", rows, n)
	}
	r := &bitReader{b: payload}
	for _, pad := range [][2]uint64{{64*n + n*uint64(c), 8 * (8*n + countBytes)}, {8*(8*n+countBytes) + rows*uint64(w), 8 * uint64(len(payload))}} {
		for r.pos = pad[0]; r.pos < pad[1]; {
			if r.read(1) != 0 {
				return 0, nil, fmt.Errorf("chunkstore: nonzero padding bits")
			}
		}
	}
	r.pos = 0
	values := make([]float64, n)
	last := math.Inf(-1)
	for i := range values {
		values[i] = math.Float64frombits(r.read(64))
		if !(values[i] > last) {
			return 0, nil, fmt.Errorf("chunkstore: entry %d value %g after %g: %w", i, values[i], last, errUnordered)
		}
		last = values[i]
	}
	counts, sum := make([]uint64, n), uint64(0)
	for i := range counts {
		counts[i] = r.read(c) + 1
		sum += counts[i]
	}
	if sum != rows {
		return 0, nil, fmt.Errorf("chunkstore: posting counts sum to %d, header says %d rows", sum, rows)
	}
	r.pos = 8 * (8*n + countBytes)
	for i, v := range values {
		ids := make([]uint32, counts[i])
		for j := range ids {
			ids[j] = uint32(r.read(w))
			if j > 0 && ids[j] <= ids[j-1] {
				return 0, nil, fmt.Errorf("chunkstore: entry %d posting %d: row %d after %d: %w", i, j, ids[j], ids[j-1], errUnordered)
			}
		}
		entries = append(entries, Entry{Value: v, Rows: ids})
	}
	return dim, entries, nil
}

// requireDecodeMatchesReference decodes data into p and holds the result —
// dimension, postings or error text — to referenceDecode's. It returns the
// decode's error.
func requireDecodeMatchesReference(t *testing.T, what string, data []byte, p *Postings) error {
	t.Helper()
	wantDim, want, wantErr := referenceDecode(data)
	dim, err := decodeChunkInto(data, p, nil)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, the reference fails with %q", what, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%s: %v; the reference decodes it", what, err)
	case dim != wantDim || !entriesEqual(p.Entries(), want):
		t.Fatalf("%s: postings differ from the reference's", what)
	case len(p.Ends) != len(p.Values) || len(p.Ends) > 0 && int(p.Ends[len(p.Ends)-1]) != len(p.Rows):
		t.Fatalf("%s: %d values and %d ends for %d row ids", what, len(p.Values), len(p.Ends), len(p.Rows))
	}
	return err
}

// rawBody builds a chunk body, CRC not included, field by field at widths
// w and c: the values as given, each count (a row count − 1) at c bits
// unless c is 0, the ids at w bits. It writes what the encoder would not:
// wider widths than the chunk needs, and every kind of disorder.
func rawBody(w, c uint, values []float64, counts, ids []uint32) []byte {
	b := []byte(chunkMagic)
	b = binary.LittleEndian.AppendUint16(b, ChunkVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(values)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	b = append(b, byte(w), byte(c), 0, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	var bw bitWriter
	if c > 0 {
		for _, n := range counts {
			b = bw.append(b, n, c)
		}
		b = bw.flush(b)
	}
	for _, id := range ids {
		b = bw.append(b, id, w)
	}
	return bw.flush(b)
}

// boundaryChunks are chunks at every id width w = 1…32, each holding the
// widest id 2^w − 1: one-row chunks of 1–17 postings, so the id section
// ends in each of its last eight bytes under the unaligned loads, and a
// multi-row chunk at count width 1.
func boundaryChunks(rng *rand.Rand) [][]Entry {
	var chunks [][]Entry
	for w := 1; w <= 32; w++ {
		top := uint32(1<<w - 1)
		for n := 1; n <= 17; n++ {
			chunk := []Entry{{Value: 0, Rows: []uint32{top}}}
			for i := 1; i < n; i++ {
				chunk = append(chunk, Entry{Value: float64(i), Rows: []uint32{uint32(rng.Int63n(int64(top) + 1))}})
			}
			rng.Shuffle(n, func(i, j int) { chunk[i].Rows, chunk[j].Rows = chunk[j].Rows, chunk[i].Rows })
			chunks = append(chunks, chunk)
		}
		chunks = append(chunks, []Entry{{Value: -1, Rows: []uint32{0, top}}, {Value: 0.5, Rows: []uint32{top}}, {Value: 2, Rows: []uint32{top >> 1}}})
	}
	return chunks
}

// TestDecodeMatchesReference holds the columnar decoder to referenceDecode
// over the boundary chunks, generated chunks of one-row and multi-row
// postings, chunks at count width 32, and CRC-valid truncations and byte
// flips of each, all decoded into one buffer that last held larger and
// smaller chunks.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var bodies [][]byte
	var inputs [][]Entry
	chunks := boundaryChunks(rng)
	for _, target := range []int{64, 300, 4 << 10, 64 << 10, 1 << 10, 64, 16 << 10} {
		chunks = append(chunks, genChunk(rng, target, 1, 1<<22), genChunk(rng, target, 50, 1<<22))
	}
	for ci, in := range chunks {
		data, err := encodeChunk(ci%7, in)
		if err != nil {
			t.Fatal(err)
		}
		bodies, inputs = append(bodies, data[:len(data)-4]), append(inputs, in)
	}
	// Counts at the widest width, ids wider than they need.
	bodies = append(bodies,
		rawBody(5, 32, []float64{1, 2, 3}, []uint32{0, 2, 1}, []uint32{3, 1, 7, 9, 4, 20}),
		rawBody(32, 32, []float64{-2}, []uint32{1}, []uint32{0, math.MaxUint32}))
	inputs = append(inputs,
		[]Entry{{1, []uint32{3}}, {2, []uint32{1, 7, 9}}, {3, []uint32{4, 20}}},
		[]Entry{{-2, []uint32{0, math.MaxUint32}}})

	p := new(Postings)
	for ci, body := range bodies {
		what := fmt.Sprintf("chunk %d", ci)
		requireDecodeMatchesReference(t, what, reseal(body), p)
		if !reflect.DeepEqual(p.Entries(), inputs[ci]) {
			t.Fatalf("%s: does not round-trip", what)
		}
		for k := 0; k < 8; k++ {
			cut := headerSize + rng.Intn(len(body)-headerSize)
			requireDecodeMatchesReference(t, fmt.Sprintf("%s cut at %d", what, cut), reseal(body[:cut]), p)
			flipped := bytes.Clone(body)
			pos := rng.Intn(len(body))
			flipped[pos] ^= byte(1 + rng.Intn(255))
			requireDecodeMatchesReference(t, fmt.Sprintf("%s flipped at %d", what, pos), reseal(flipped), p)
		}
	}
}

// unorderedBodies are CRC-less chunk bodies the encoder never writes and a
// CRC would not catch: equal, descending and NaN values, a row id repeated
// or descending inside a posting, a nonzero padding bit, and counts that do
// not sum to the header's rows.
func unorderedBodies() map[string][]byte {
	padded := rawBody(3, 0, []float64{1, 2}, nil, []uint32{1, 2})
	padded[len(padded)-1] |= 0x80
	return map[string][]byte{
		"equal-values":       rawBody(1, 0, []float64{1, 1}, nil, []uint32{0, 1}),
		"descending-values":  rawBody(1, 0, []float64{2, 1}, nil, []uint32{0, 1}),
		"nan-value":          rawBody(2, 0, []float64{1, math.NaN(), 2}, nil, []uint32{0, 1, 2}),
		"repeated-row-id":    rawBody(2, 1, []float64{1}, []uint32{1}, []uint32{3, 3}),
		"descending-row-id":  rawBody(3, 1, []float64{1}, []uint32{1}, []uint32{5, 4}),
		"nonzero-padding":    padded,
		"count-sum-mismatch": rawBody(2, 1, []float64{1, 2}, []uint32{0, 0}, []uint32{1, 2, 3}),
	}
}

// TestDecodeRejectsUnorderedChunks: the disordered ones wrap errUnordered —
// MergeChunks, which starts at the box by binary search and stops at the
// first value past it, would drop in-box postings behind them — and the
// other two fail by name.
func TestDecodeRejectsUnorderedChunks(t *testing.T) {
	for name, body := range unorderedBodies() {
		data := reseal(body)
		_, _, err := decodeChunk(data)
		switch name {
		case "nonzero-padding", "count-sum-mismatch":
			if want := map[string]string{"nonzero-padding": "nonzero padding", "count-sum-mismatch": "posting counts sum to 2, header says 3 rows"}[name]; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want %q", name, err, want)
			}
		default:
			if !errors.Is(err, errUnordered) {
				t.Errorf("%s: err = %v, want one wrapping errUnordered", name, err)
			}
		}
		requireDecodeMatchesReference(t, name, data, new(Postings))
	}
}

// TestDecodeIntoDirtyBuffer decodes generated chunks into one buffer that
// last held larger and smaller chunks: the postings must be decodeChunk's,
// and no posting list of the Entries view may be able to grow into its
// neighbour.
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
			dim, err := decodeChunkInto(data, buf, nil)
			if err != nil {
				t.Fatalf("chunk %d: %v", ci, err)
			}
			got := buf.Entries()
			if dim != wantDim || !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk %d: decodeChunkInto differs from decodeChunk", ci)
			}
			for i := range got {
				if len(got[i].Rows) != cap(got[i].Rows) {
					t.Fatalf("chunk %d entry %d: Rows has spare capacity %d", ci, i, cap(got[i].Rows)-len(got[i].Rows))
				}
			}
			// Appending must move the list, not write the next one.
			for i := 0; i+1 < len(got); i++ {
				_ = append(got[i].Rows, math.MaxUint32)
			}
			if !reflect.DeepEqual(buf.Entries(), want) {
				t.Fatalf("chunk %d: append to a posting list altered a neighbour", ci)
			}
		}
	}
}

// benchChunkShapes are chunks shaped like the benchmark stores' (64 KB
// target over 50 000 rows): "one-row" is a real-valued dimension, 5 400
// one-row postings; "field" is the integer dimension, ≈ 50 rows per value.
func benchChunkShapes(b *testing.B) []struct {
	name    string
	entries []Entry
} {
	rng := rand.New(rand.NewSource(1))
	var oneRow []Entry
	value := 0.0
	for i := 0; i < 5400; i++ {
		value += rng.Float64() + 1e-9
		oneRow = append(oneRow, Entry{Value: value, Rows: []uint32{uint32(rng.Intn(50_000))}})
	}
	field := chunkCutter{target: math.MaxInt}
	for v := 0; field.payload() < 63<<10; v++ {
		rows := make([]uint32, 0, 50)
		for id := uint32(rng.Intn(1000)); id < 50_000 && len(rows) < cap(rows); id += 1 + uint32(rng.Intn(1999)) {
			rows = append(rows, id)
		}
		if err := field.add(Entry{Value: float64(v), Rows: rows}); err != nil {
			b.Fatal(err)
		}
	}
	return []struct {
		name    string
		entries []Entry
	}{{"one-row", oneRow}, {"field", field.pending}}
}

// BenchmarkDecodeChunk decodes the benchChunkShapes chunks. fresh is what
// an owning read or a cache miss pays, reused what every chunk of a
// ReadChunksOrdered call pays.
func BenchmarkDecodeChunk(b *testing.B) {
	for _, shape := range benchChunkShapes(b) {
		data, err := encodeChunk(0, shape.entries)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, buf func() *Postings) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeChunkInto(data, buf(), nil); err != nil {
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

// oneChunkStore writes entries as the one chunk of a one-column store of
// benchChunkShapes' 50 000 rows in dir, and opens it.
func oneChunkStore(t testing.TB, dir string, entries []Entry) *Store {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, dataFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	meta := cutOne(t, f, 0, entries)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		FormatVersion: manifestFormatVersion,
		Columns:       []string{"x"},
		RowCount:      50_000,
		Chunks:        [][]ChunkMeta{{meta}},
		MinValues:     []float64{meta.MinValue},
		MaxValues:     []float64{meta.MaxValue},
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	st, err := newStore(dir, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// BenchmarkChunkRead reads each benchChunkShapes chunk from its data file
// through a Store with no block cache, as every chunk of a cold cell load
// is read: the manifest check, the pread, the CRC and the decode into
// pooled postings. Less BenchmarkDecodeChunk's reused time of the same
// shape, it is the fixed cost of a read. Run it at -cpu 1.
func BenchmarkChunkRead(b *testing.B) {
	ctx := context.Background()
	for _, shape := range benchChunkShapes(b) {
		st := oneChunkStore(b, b.TempDir(), shape.entries)
		meta := st.manifest.Chunks[0][0]
		metas := []ChunkMeta{meta}
		visit := func(ChunkMeta, Postings) error { return nil }
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(meta.Bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.ReadChunksOrdered(ctx, metas, visit); err != nil {
					b.Fatal(err)
				}
			}
		})
		st.Close()
	}
}
