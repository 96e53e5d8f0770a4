package dbms

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
)

func makeTable(t *testing.T, n, frames int) (*Table, *dataset.Dataset, string) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tb, err := CreateTable(dir, ds, frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	return tb, ds, dir
}

func TestCreateTableValidation(t *testing.T) {
	empty := dataset.New(dataset.MustSchema("x"), 0)
	if _, err := CreateTable(t.TempDir(), empty, 4, nil); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestTableScanMatchesDataset(t *testing.T) {
	tb, ds, _ := makeTable(t, 2500, 8)
	if tb.RowCount() != 2500 || tb.Dims() != 5 {
		t.Fatalf("rows=%d dims=%d", tb.RowCount(), tb.Dims())
	}
	next := uint32(0)
	err := tb.Scan(context.Background(), func(id uint32, row []float64) bool {
		if id != next {
			t.Fatalf("scan out of order: got %d, want %d", id, next)
		}
		if !slices.Equal(row, ds.Row(dataset.RowID(id))) {
			t.Fatalf("row %d differs", id)
		}
		next++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(next) != ds.Len() {
		t.Fatalf("scanned %d rows, want %d", next, ds.Len())
	}
}

func TestTableScanEarlyStop(t *testing.T) {
	tb, _, _ := makeTable(t, 1000, 4)
	n := 0
	err := tb.Scan(context.Background(), func(uint32, []float64) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("visited %d rows", n)
	}
}

func TestTableOpenAndGet(t *testing.T) {
	_, ds, dir := makeTable(t, 1200, 8)
	tb, err := OpenTable(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.RowCount() != 1200 {
		t.Fatalf("RowCount = %d", tb.RowCount())
	}
	row := make([]float64, tb.Dims())
	for _, id := range []uint32{0, 1, 577, 1199} {
		if err := tb.Get(id, row); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(row, ds.Row(dataset.RowID(id))) {
			t.Fatalf("Get(%d) differs", id)
		}
	}
	if err := tb.Get(1200, row); err == nil {
		t.Error("out-of-range Get should fail")
	}
	if err := tb.Get(0, make([]float64, 2)); err == nil {
		t.Error("dims mismatch should fail")
	}
	if tb.SizeBytes() != int64(tb.Pages())*PageSize {
		t.Error("SizeBytes inconsistent")
	}
	if len(tb.Columns()) != 5 {
		t.Error("Columns wrong")
	}
}

func TestOpenTableErrors(t *testing.T) {
	if _, err := OpenTable(t.TempDir(), 4, nil); err == nil {
		t.Error("missing table should fail")
	}
}

func TestBufferPoolChurnOnScan(t *testing.T) {
	// A pool much smaller than the table must evict during a scan and
	// still produce correct results on a second scan.
	tb, ds, _ := makeTable(t, 3000, 2)
	if tb.Pages() <= 2 {
		t.Skip("table unexpectedly fits the pool")
	}
	for pass := 0; pass < 2; pass++ {
		count := 0
		err := tb.Scan(context.Background(), func(id uint32, row []float64) bool {
			if !slices.Equal(row, ds.Row(dataset.RowID(id))) {
				t.Fatalf("pass %d row %d differs", pass, id)
			}
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 3000 {
			t.Fatalf("pass %d scanned %d", pass, count)
		}
	}
	_, misses, evictions := tb.Pool().Stats()
	if evictions == 0 {
		t.Error("expected evictions with a 2-frame pool")
	}
	if misses < int64(tb.Pages()) {
		t.Errorf("misses %d below page count %d", misses, tb.Pages())
	}
}

func TestBufferPoolPinSemantics(t *testing.T) {
	tb, _, _ := makeTable(t, 500, 3)
	pool := tb.Pool()
	p0, err := pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if p0 == nil {
		t.Fatal("nil page")
	}
	// Pin all frames; the next fetch must fail.
	if _, err := pool.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(2); err != nil {
		t.Fatal(err)
	}
	if tb.Pages() > 3 {
		if _, err := pool.Fetch(3); err == nil {
			t.Error("fetch with all frames pinned should fail")
		}
	}
	if err := pool.Unpin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(0, false); err == nil {
		t.Error("double unpin should fail")
	}
	if err := pool.Unpin(999, false); err == nil {
		t.Error("unpin of non-resident page should fail")
	}
	pool.Unpin(1, false)
	pool.Unpin(2, false)
	// Now a fourth page can come in, evicting page 0 (LRU).
	if tb.Pages() > 3 {
		if _, err := pool.Fetch(3); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(3, false)
	}
}

func TestBufferPoolValidation(t *testing.T) {
	if _, err := NewBufferPool(nil, 4); err == nil {
		t.Error("nil pager should fail")
	}
	pager, err := CreatePager(filepath.Join(t.TempDir(), "x.heap"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	if _, err := NewBufferPool(pager, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestPagerValidation(t *testing.T) {
	dir := t.TempDir()
	pager, err := CreatePager(filepath.Join(dir, "t.heap"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.initPage()
	if err := pager.ReadPage(0, &p); err == nil {
		t.Error("read of unallocated page should fail")
	}
	id, err := pager.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := pager.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	if err := pager.WritePage(id+1, &p); err == nil {
		t.Error("write past end should fail")
	}
	if err := pager.Sync(); err != nil {
		t.Fatal(err)
	}
	pager.Close()

	ro, err := OpenPager(filepath.Join(dir, "t.heap"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.AllocatePage(); err == nil {
		t.Error("allocate on read-only pager should fail")
	}
	if err := ro.WritePage(0, &p); err == nil {
		t.Error("write on read-only pager should fail")
	}
	if err := ro.ReadPage(0, &p); err != nil {
		t.Fatal(err)
	}
}
