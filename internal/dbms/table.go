package dbms

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/iothrottle"
)

const (
	tableMetaFile = "table.json"
	tableDataFile = "data.heap"
)

// tableMeta is the table's persistent catalog entry.
type tableMeta struct {
	FormatVersion int      `json:"format_version"`
	Columns       []string `json:"columns"`
	RowCount      int      `json:"row_count"`
	Pages         int      `json:"pages"`
	RowsPerPage   int      `json:"rows_per_page"`
}

const tableFormatVersion = 1

// Table is a single heap-file table of fixed-width numeric rows, read
// through a buffer pool. Records are (rowID uint32, values [dims]float64);
// row ids are dense and assigned in insertion order, so point lookups are
// arithmetic rather than index-based.
type Table struct {
	dir   string
	meta  tableMeta
	pager *Pager
	pool  *BufferPool
}

// recordSize returns the on-page record size for a dimensionality.
func recordSize(dims int) int { return 4 + 8*dims }

// rowsPerPage returns how many fixed-size records fit a slotted page.
func rowsPerPage(dims int) int {
	return (PageSize - pageHeaderSize) / (recordSize(dims) + slotSize)
}

// CreateTable bulk-loads the dataset into a new heap file in dir and
// returns the opened table. poolFrames sizes the buffer pool; the limiter
// meters reads (bulk-load writes are not billed: initialization is
// once-per-dataset, mirroring the chunk store's Build).
func CreateTable(dir string, ds *dataset.Dataset, poolFrames int, limiter *iothrottle.Limiter) (*Table, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("dbms: refusing to create a table from an empty dataset")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dbms: create %s: %w", dir, err)
	}
	pager, err := CreatePager(filepath.Join(dir, tableDataFile), limiter)
	if err != nil {
		return nil, err
	}
	pool, err := NewBufferPool(pager, poolFrames)
	if err != nil {
		pager.Close()
		return nil, err
	}

	dims := ds.Dims()
	record := make([]byte, recordSize(dims))
	var (
		curID   PageID
		curPage *Page
	)
	var loadErr error
	ds.Scan(func(id dataset.RowID, row []float64) bool {
		encodeRecord(record, uint32(id), row)
		if curPage != nil {
			if _, err := curPage.Insert(record); err == nil {
				return true
			}
			// Page full: release it and open a new one.
			if err := pool.Unpin(curID, true); err != nil {
				loadErr = err
				return false
			}
			curPage = nil
		}
		curID, curPage, loadErr = pool.NewPage()
		if loadErr != nil {
			return false
		}
		if _, err := curPage.Insert(record); err != nil {
			loadErr = err
			return false
		}
		return true
	})
	if loadErr == nil && curPage != nil {
		loadErr = pool.Unpin(curID, true)
	}
	if loadErr == nil {
		loadErr = pool.FlushAll()
	}
	if loadErr != nil {
		pager.Close()
		return nil, loadErr
	}

	meta := tableMeta{
		FormatVersion: tableFormatVersion,
		Columns:       ds.Schema().Names(),
		RowCount:      ds.Len(),
		Pages:         pager.NumPages(),
		RowsPerPage:   rowsPerPage(dims),
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		pager.Close()
		return nil, fmt.Errorf("dbms: marshal table meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, tableMetaFile), data, 0o644); err != nil {
		pager.Close()
		return nil, fmt.Errorf("dbms: write table meta: %w", err)
	}
	return &Table{dir: dir, meta: meta, pager: pager, pool: pool}, nil
}

// OpenTable opens an existing table read-only with a fresh buffer pool of
// poolFrames frames.
func OpenTable(dir string, poolFrames int, limiter *iothrottle.Limiter) (*Table, error) {
	data, err := os.ReadFile(filepath.Join(dir, tableMetaFile))
	if err != nil {
		return nil, fmt.Errorf("dbms: read table meta: %w", err)
	}
	var meta tableMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("dbms: parse table meta: %w", err)
	}
	if meta.FormatVersion != tableFormatVersion {
		return nil, fmt.Errorf("dbms: table format %d, want %d", meta.FormatVersion, tableFormatVersion)
	}
	if len(meta.Columns) == 0 || meta.RowCount < 0 || meta.RowsPerPage <= 0 {
		return nil, fmt.Errorf("dbms: invalid table meta %+v", meta)
	}
	pager, err := OpenPager(filepath.Join(dir, tableDataFile), limiter)
	if err != nil {
		return nil, err
	}
	if pager.NumPages() != meta.Pages {
		pager.Close()
		return nil, fmt.Errorf("dbms: heap has %d pages, catalog says %d", pager.NumPages(), meta.Pages)
	}
	pool, err := NewBufferPool(pager, poolFrames)
	if err != nil {
		pager.Close()
		return nil, err
	}
	return &Table{dir: dir, meta: meta, pager: pager, pool: pool}, nil
}

// Close releases the table's file handle.
func (t *Table) Close() error { return t.pager.Close() }

// Dims returns the number of attributes.
func (t *Table) Dims() int { return len(t.meta.Columns) }

// Columns returns the attribute names.
func (t *Table) Columns() []string { return t.meta.Columns }

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return t.meta.RowCount }

// Pages returns the number of heap pages.
func (t *Table) Pages() int { return t.meta.Pages }

// SizeBytes returns the heap file size, the denominator for memory-budget
// ratios.
func (t *Table) SizeBytes() int64 { return int64(t.meta.Pages) * PageSize }

// Pool exposes the buffer pool for statistics.
func (t *Table) Pool() *BufferPool { return t.pool }

// Scan streams every row in id order through the buffer pool, calling fn
// until it returns false. The row slice is reused across calls; callers
// must copy it to retain it. This is the exhaustive per-iteration search of
// the DBMS baseline. A canceled ctx aborts the scan at the next page
// boundary.
func (t *Table) Scan(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	dims := t.Dims()
	row := make([]float64, dims)
	for pid := PageID(0); int(pid) < t.meta.Pages; pid++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := t.pool.Fetch(pid)
		if err != nil {
			return err
		}
		stop := false
		for slot := 0; slot < page.NumSlots(); slot++ {
			rec, err := page.Record(slot)
			if err != nil {
				t.pool.Unpin(pid, false)
				return fmt.Errorf("dbms: page %d: %w", pid, err)
			}
			id, err := decodeRecord(rec, row)
			if err != nil {
				t.pool.Unpin(pid, false)
				return fmt.Errorf("dbms: page %d slot %d: %w", pid, slot, err)
			}
			if !fn(id, row) {
				stop = true
				break
			}
		}
		if err := t.pool.Unpin(pid, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Get fetches one row by id using the fixed-width layout's arithmetic
// addressing (page = id / rowsPerPage, slot = id % rowsPerPage).
func (t *Table) Get(id uint32, dst []float64) error {
	if int(id) >= t.meta.RowCount {
		return fmt.Errorf("dbms: row %d out of range [0,%d)", id, t.meta.RowCount)
	}
	if len(dst) != t.Dims() {
		return fmt.Errorf("dbms: dst has %d dims, table has %d", len(dst), t.Dims())
	}
	pid := PageID(int(id) / t.meta.RowsPerPage)
	slot := int(id) % t.meta.RowsPerPage
	page, err := t.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(pid, false)
	rec, err := page.Record(slot)
	if err != nil {
		return err
	}
	gotID, err := decodeRecord(rec, dst)
	if err != nil {
		return err
	}
	if gotID != id {
		return fmt.Errorf("dbms: row %d resolved to record %d; heap is inconsistent", id, gotID)
	}
	return nil
}

// encodeRecord serializes (id, row) into dst, which must be
// recordSize(len(row)) bytes.
func encodeRecord(dst []byte, id uint32, row []float64) {
	binary.LittleEndian.PutUint32(dst[0:4], id)
	for i, v := range row {
		binary.LittleEndian.PutUint64(dst[4+8*i:], math.Float64bits(v))
	}
}

// decodeRecord parses a record into row (whose length fixes the expected
// dimensionality) and returns the row id.
func decodeRecord(rec []byte, row []float64) (uint32, error) {
	if len(rec) != recordSize(len(row)) {
		return 0, fmt.Errorf("dbms: record is %d bytes, want %d", len(rec), recordSize(len(row)))
	}
	id := binary.LittleEndian.Uint32(rec[0:4])
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*i:]))
	}
	return id, nil
}
