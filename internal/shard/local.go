package shard

import (
	"context"
	"slices"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// LocalBackend reads one in-process *Shard over the store's grid: the
// coordinator's per-shard leg of a cell load, a fetch and a retrieval.
//
// A shard holds one part for build-time layouts and several for live
// (stream) snapshots. A single part's rows are already in global id
// order; multi-part loads and fetches merge per-part results by global id,
// which yields the same row set one store over the union of the parts'
// rows would produce (chunk reconstruction is per-row value containment,
// and every part's idmap is strictly ascending). Retrieve returns the
// parts' results side by side instead.
type LocalBackend struct {
	shard *Shard
	g     *grid.Grid
}

// LoadCell merges the cell's chunks from each part's store and remaps row
// ids to global. Returned ids are ascending; entries is the posting-entry
// count the merge visited (the e of the O(k·e) bound).
func (b *LocalBackend) LoadCell(ctx context.Context, cell grid.CellID) ([]uint32, [][]float64, int, error) {
	box, err := b.g.CellBox(cell)
	if err != nil {
		return nil, nil, 0, err
	}
	rows, entries, err := MergePartsCell(ctx, b.shard.Parts, box, cell)
	if err != nil {
		return nil, nil, 0, err
	}
	ids := make([]uint32, len(rows))
	vals := make([][]float64, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
		vals[i] = r.Vals
	}
	return ids, vals, entries, nil
}

// FetchRows reconstructs the subset of the given global row ids (sorted
// ascending, deduplicated) this shard holds: it intersects them with each
// part's idmap, fetches the local rows, and remaps them to global.
func (b *LocalBackend) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	return FetchPartsRows(ctx, b.shard.Parts, ids)
}

// Retrieve runs the shared marked-segment scan over each part's store and
// returns one columnar result per part; entries counts the posting entries
// streamed.
func (b *LocalBackend) Retrieve(ctx context.Context, marked [][]bool) ([]RetrievedPart, int, error) {
	return ScanPartsMarked(ctx, b.g, b.shard.Parts, marked)
}

// gather adds one part's (or one shard's) rows to out, adopting the first
// batch instead of copying it: with one part in one shard the store's own
// slice reaches the caller.
func gather[T any](out, rows []T) []T {
	if out == nil {
		return rows
	}
	return append(out, rows...)
}

// MergePartsCell reconstructs one grid cell across parts: each part
// merges its own chunks by row id, local ids remap through the part's idmap,
// and the per-part row sets (disjoint — every global row lives in exactly
// one part) concatenate into one id-sorted slice. With a single part this
// is exactly the store's MergeChunks plus the remap.
func MergePartsCell(ctx context.Context, parts []Part, box vec.Box, cell grid.CellID) ([]chunkstore.MergedRow, int, error) {
	var out []chunkstore.MergedRow
	var entries int
	for i := range parts {
		p := &parts[i]
		chunks, err := p.Mapping.Chunks(cell)
		if err != nil {
			return nil, 0, err
		}
		rows, pe, err := p.Store.MergeChunks(ctx, box, chunks)
		if err != nil {
			return nil, 0, err
		}
		entries += pe
		for j := range rows {
			rows[j].ID = p.globalID(rows[j].ID)
		}
		out = gather(out, rows)
	}
	if len(parts) > 1 {
		slices.SortFunc(out, chunkstore.CompareRowID)
	}
	return out, entries, nil
}

// FetchPartsRows point-fetches sorted global ids across parts and returns
// the union sorted by global id.
func FetchPartsRows(ctx context.Context, parts []Part, ids []uint32) ([]chunkstore.MergedRow, error) {
	var out []chunkstore.MergedRow
	for i := range parts {
		p := &parts[i]
		local := p.localIDs(ids)
		if len(local) == 0 {
			continue
		}
		rows, err := p.Store.FetchRows(ctx, local)
		if err != nil {
			return nil, err
		}
		for j := range rows {
			rows[j].ID = p.globalID(rows[j].ID)
		}
		out = gather(out, rows)
	}
	if len(parts) > 1 {
		slices.SortFunc(out, chunkstore.CompareRowID)
	}
	return out, nil
}

// ScanPartsMarked runs the shared marked-segment scan over each part's
// store. Parts hold disjoint rows and nothing downstream needs them
// interleaved, so the per-part results are returned as they are, in part
// order, not merged.
func ScanPartsMarked(ctx context.Context, g *grid.Grid, parts []Part, marked [][]bool) ([]RetrievedPart, int, error) {
	out := make([]RetrievedPart, 0, len(parts))
	var entries int
	for i := range parts {
		r, pe, err := ScanMarked(ctx, g, &parts[i], marked, nil)
		if err != nil {
			return nil, 0, err
		}
		entries += pe
		out = append(out, r)
	}
	return out, entries, nil
}
