package chunkstore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// recipe hands out the bytes of a fuzz input, then zeroes once they run out.
type recipe []byte

func (r *recipe) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// boxEdge derives one box edge on a store of values in [-span, span]: a
// stored value, ±0, a value between two stored ones, or one outside the
// domain.
func boxEdge(b byte, span int) float64 {
	switch b % 8 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return float64(int(b>>3)%(2*span+1)-span) + 0.5
	case 3:
		return float64(span + 1 + int(b>>3)%3)
	case 4:
		return -float64(span + 1 + int(b>>3)%3)
	default:
		return float64(int(b>>3)%(2*span+1) - span)
	}
}

// mergeReference reconstructs, from the decoded postings alone, what a merge
// of box over the chunk list must return: on each dimension a row's value
// is its first in-box posting, in list order and then value order, and a
// row survives when every dimension has one. rows maps id to values.
func mergeReference(t *testing.T, st *Store, box vec.Box, chunks []ChunkMeta) (ids []uint32, rows map[uint32][]float64) {
	t.Helper()
	dims := st.Dims()
	first := make([]map[uint32]float64, dims)
	for d := range first {
		first[d] = map[uint32]float64{}
	}
	for _, c := range chunks {
		entries, err := st.ReadChunk(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Value < box.Min[c.Dim] || e.Value > box.Max[c.Dim] {
				continue
			}
			for _, id := range e.Rows {
				if _, ok := first[c.Dim][id]; !ok {
					first[c.Dim][id] = e.Value
				}
			}
		}
	}
	rows = map[uint32][]float64{}
	for id := range first[0] {
		vals := make([]float64, dims)
		for d := range vals {
			v, ok := first[d][id]
			if !ok {
				vals = nil
				break
			}
			vals[d] = v
		}
		if vals != nil {
			rows[id] = vals
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, rows
}

// requireReference holds reconstructed rows to the reference bit for bit.
func requireReference(t *testing.T, what string, got []MergedRow, ids []uint32, rows map[uint32][]float64) {
	t.Helper()
	if len(got) != len(ids) {
		t.Fatalf("%s: %d rows, reference has %d", what, len(got), len(ids))
	}
	for i, r := range got {
		want := rows[ids[i]]
		if r.ID != ids[i] || len(r.Vals) != len(want) {
			t.Fatalf("%s: row %d is %d %v, want %d %v", what, i, r.ID, r.Vals, ids[i], want)
		}
		for d, v := range r.Vals {
			if math.Float64bits(v) != math.Float64bits(want[d]) {
				t.Fatalf("%s: row %d dimension %d is %v, want %v", what, r.ID, d, v, want[d])
			}
		}
	}
}

// FuzzMergeChunks holds MergeChunks and FetchRows to a brute-force filter of
// a small generated store: 1–300 rows of 1–4 dimensions of small integers
// (±0 mixed), chunks small enough to split a value's postings, boxes that
// are degenerate, inverted, outside the domain or edged on ±0, chunk lists
// with slack (chunks that miss the box, from any dimension, and repeats),
// read through one to three workers. When the input asks, one chunk is
// rebuilt by hand to post one of its rows a second time at a larger value:
// on that dimension the row's first in-box posting must win. The rows are
// compared with the dataset's own filter when no chunk was rebuilt, and
// always, bit for bit, with a reference built from the decoded postings;
// FetchRows of random ids is held to the same reference over every chunk.
// The pooled scratch must be all zero after every call.
func FuzzMergeChunks(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := recipe(data)
		n := 1 + (int(r.next())|int(r.next())<<8)%300
		dims := 1 + int(r.next())%4
		span := 1 + int(r.next())%8
		chunkBytes := 64 + 8*int(r.next())
		names := make([]string, dims)
		for d := range names {
			names[d] = fmt.Sprintf("c%d", d)
		}
		ds := dataset.New(dataset.MustSchema(names...), n)
		row := make([]float64, dims)
		for i := 0; i < n; i++ {
			for d := range row {
				b := r.next()
				row[d] = float64(int(b>>1)%(2*span+1) - span)
				if row[d] == 0 && b&1 != 0 {
					row[d] = math.Copysign(0, -1)
				}
			}
			if _, err := ds.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: chunkBytes})
		if err != nil {
			t.Fatal(err)
		}
		// Each input's store holds its chunk files open until closed: a
		// long fuzz run would otherwise run out of descriptors.
		defer st.Close()
		st.SetWorkers(1 + int(r.next())%3)

		rebuilt := false
		if b := r.next(); b&1 != 0 {
			// A row posted twice on one dimension: its first posting, then
			// again past the chunk's largest value.
			d := int(b>>1) % dims
			meta := st.Manifest().Chunks[d][int(r.next())%len(st.Manifest().Chunks[d])]
			entries, err := st.ReadChunk(context.Background(), meta)
			if err != nil {
				t.Fatal(err)
			}
			e := entries[int(r.next())%len(entries)]
			id := e.Rows[int(r.next())%len(e.Rows)]
			entries = append(entries, Entry{Value: entries[len(entries)-1].Value + float64(1+int(r.next())%3), Rows: []uint32{id}})
			spliceChunk(t, st, meta, entries)
			rebuilt = true
		}

		for round := 0; round < 3; round++ {
			// Built directly: an inverted box, which NewBox refuses, is one
			// more empty one.
			box := vec.Box{Min: make([]float64, dims), Max: make([]float64, dims)}
			for d := 0; d < dims; d++ {
				box.Min[d], box.Max[d] = boxEdge(r.next(), span), boxEdge(r.next(), span)
				switch r.next() % 4 {
				case 0:
					box.Max[d] = box.Min[d] // degenerate
				case 1:
					box.Min[d], box.Max[d] = min(box.Min[d], box.Max[d]), max(box.Min[d], box.Max[d])
				}
			}
			// Every chunk whose range meets the box on its dimension, and
			// slack: chunks that miss it and repeats.
			var chunks []ChunkMeta
			for d := 0; d < dims; d++ {
				for _, c := range st.Manifest().Chunks[d] {
					if c.MaxValue >= box.Min[d] && c.MinValue <= box.Max[d] {
						chunks = append(chunks, c)
					} else if r.next()%2 == 0 {
						chunks = append(chunks, c)
					}
				}
			}
			for extra := int(r.next()) % 3; extra > 0 && len(chunks) > 0; extra-- {
				chunks = append(chunks, chunks[int(r.next())%len(chunks)])
			}
			what := fmt.Sprintf("round %d box %v", round, box)
			got, _, err := st.MergeChunks(context.Background(), box, chunks)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			ids, rows := mergeReference(t, st, box, chunks)
			requireReference(t, what, got, ids, rows)
			if !rebuilt {
				requireRows(t, what, got, ds, ds.Select(box))
			}
			requireScratchClean(t, st)
		}

		wanted := make([]uint32, 1+int(r.next())%8)
		for i := range wanted {
			wanted[i] = uint32((int(r.next()) | int(r.next())<<8) % n)
		}
		got, err := st.FetchRows(context.Background(), wanted)
		if err != nil {
			t.Fatal(err)
		}
		var all []ChunkMeta
		for d := 0; d < dims; d++ {
			all = append(all, st.Manifest().Chunks[d]...)
		}
		everything := vec.Box{Min: make([]float64, dims), Max: make([]float64, dims)}
		for d := 0; d < dims; d++ {
			everything.Min[d], everything.Max[d] = math.Inf(-1), math.Inf(1)
		}
		_, rows := mergeReference(t, st, everything, all)
		uniq := slices.Clone(wanted)
		slices.Sort(uniq)
		requireReference(t, "fetch", got, slices.Compact(uniq), rows)
		requireScratchClean(t, st)
	})
}
