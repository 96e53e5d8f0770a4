package dataset

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/uei-db/uei/internal/vec"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty name should fail")
	}
	s, err := NewSchema("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if s.Dims() != 2 || s.ColumnIndex("y") != 1 || s.ColumnIndex("z") != -1 {
		t.Errorf("schema accessors wrong: %+v", s)
	}
	if s.String() != "x,y" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema("x", "y")
	b := MustSchema("x", "y")
	c := MustSchema("y", "x")
	if !a.Equal(b) || a.Equal(c) || a.Equal(MustSchema("x")) {
		t.Error("schema equality broken")
	}
}

func TestSkySchema(t *testing.T) {
	s := SkySchema()
	want := []string{"rowc", "colc", "ra", "dec", "field"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("column %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendAndAccess(t *testing.T) {
	ds := New(MustSchema("a", "b"), 4)
	id0, err := ds.Append([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := ds.Append([]float64{3, 4})
	if id0 != 0 || id1 != 1 || ds.Len() != 2 {
		t.Fatalf("ids %d %d len %d", id0, id1, ds.Len())
	}
	if ds.At(1, 0) != 3 || ds.At(0, 1) != 2 {
		t.Error("At wrong")
	}
	if _, err := ds.Append([]float64{1}); err == nil {
		t.Error("short row should fail")
	}
	r := ds.CopyRow(0)
	r[0] = 99
	if ds.At(0, 0) != 1 {
		t.Error("CopyRow must not alias")
	}
}

func TestBoundsAndSelect(t *testing.T) {
	ds := New(MustSchema("a", "b"), 0)
	if _, err := ds.Bounds(); err == nil {
		t.Error("empty bounds should fail")
	}
	pts := [][]float64{{0, 5}, {2, 1}, {1, 3}}
	for _, p := range pts {
		ds.Append(p)
	}
	b, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Min, []float64{0, 1}) || !slices.Equal(b.Max, []float64{2, 5}) {
		t.Errorf("bounds = %+v", b)
	}
	box := vec.NewBox([]float64{0.5, 0}, []float64{2, 3.5})
	ids := ds.Select(box)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("Select = %v", ids)
	}
	if ds.CountIn(box) != 2 {
		t.Error("CountIn disagrees with Select")
	}
}

func TestScanEarlyStop(t *testing.T) {
	ds := New(MustSchema("a"), 0)
	for i := 0; i < 10; i++ {
		ds.Append([]float64{float64(i)})
	}
	n := 0
	ds.Scan(func(id RowID, row []float64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("scan visited %d rows, want 3", n)
	}
}

func TestGenerateSkyDeterminism(t *testing.T) {
	a, err := GenerateSky(SkyConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSky(SkyConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 500 {
		t.Fatalf("len %d", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Row(RowID(i)), b.Row(RowID(i))) {
			t.Fatalf("row %d differs between equal seeds", i)
		}
	}
	c, err := GenerateSky(SkyConfig{N: 500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Len() && same; i++ {
		same = slices.Equal(a.Row(RowID(i)), c.Row(RowID(i)))
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateSkyInBounds(t *testing.T) {
	ds, err := GenerateSky(SkyConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	domain := SkyBounds()
	ds.Scan(func(id RowID, row []float64) bool {
		if !domain.Contains(row) {
			t.Fatalf("row %d = %v outside domain", id, row)
		}
		return true
	})
	// field must be integer-valued
	ds.Scan(func(id RowID, row []float64) bool {
		f := row[4]
		if f != float64(int(f)) {
			t.Fatalf("field not integral: %g", f)
		}
		return true
	})
}

func TestGenerateSkyValidation(t *testing.T) {
	if _, err := GenerateSky(SkyConfig{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := GenerateSky(SkyConfig{N: 10, ClusterFraction: 2}); err == nil {
		t.Error("fraction>1 should fail")
	}
	if _, err := GenerateSky(SkyConfig{N: 10, Clusters: -1}); err == nil {
		t.Error("negative clusters should fail")
	}
}

func TestGenerateSkyHasClusterStructure(t *testing.T) {
	// With clustering on, some small boxes should be far denser than the
	// uniform expectation. Probe boxes centered on actual data points.
	ds, err := GenerateSky(SkyConfig{N: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	domain := SkyBounds()
	widths := domain.Widths()
	best := 0
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		center := ds.Row(RowID(rng.Intn(ds.Len())))
		min := make([]float64, 5)
		max := make([]float64, 5)
		for j := 0; j < 5; j++ {
			half := widths[j] * 0.05
			min[j] = center[j] - half
			max[j] = center[j] + half
		}
		n := ds.CountIn(vec.NewBox(min, max))
		if n > best {
			best = n
		}
	}
	// Uniform expectation for a 0.1^5 volume box is 20000*1e-5 = 0.2 tuples.
	if best < 20 {
		t.Errorf("densest probed box holds %d tuples; expected clustering to exceed 20", best)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, err := GenerateSky(SkyConfig{N: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Schema().Equal(ds.Schema()) {
		t.Fatalf("schema mismatch: %v vs %v", back.Schema(), ds.Schema())
	}
	if back.Len() != ds.Len() {
		t.Fatalf("len %d vs %d", back.Len(), ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		if !slices.Equal(back.Row(RowID(i)), ds.Row(RowID(i))) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sky.csv")
	ds, _ := GenerateSky(SkyConfig{N: 50, Seed: 1})
	if err := WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Fatalf("len %d", back.Len())
	}
}

// TestCSVSkip: a pass that skips every other row reads the rest as Next
// would, and Skip parses no field — an unparsable one is no error to it, a
// row of the wrong width is.
func TestCSVSkip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sky.csv")
	ds, _ := GenerateSky(SkyConfig{N: 50, Seed: 1})
	if err := WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	f, err := OpenCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.Rows()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; ; i++ {
		var row []float64
		ok, err := true, error(nil)
		if i%2 == 0 {
			ok, err = rows.Skip()
		} else {
			row, ok, err = rows.Next()
		}
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !ok {
			if i != ds.Len() {
				t.Fatalf("the pass ended after %d of %d rows", i, ds.Len())
			}
			break
		}
		if row != nil && !slices.Equal(row, ds.Row(RowID(i))) {
			t.Fatalf("row %d: %v, want %v", i, row, ds.Row(RowID(i)))
		}
	}
	r, err := newCSVReader(strings.NewReader("a,b\n1,x\n\n3\n"), "csv")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Skip(); !ok || err != nil {
		t.Errorf("a row with an unparsable field: Skip = %v, %v; want it passed over", ok, err)
	}
	if _, err := r.Skip(); err == nil || !strings.Contains(err.Error(), `csv line 4: field "b" missing`) {
		t.Errorf("a short row: Skip err = %v", err)
	}
}

// TestReadCSVErrors: encoding/csv skips blank lines, so the count of
// records read is not a line number. Every error names the line the fault
// is on in the input, blank lines counted, and its column.
func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "read csv header"},                              // no header
		{"a,b\n1\n", "read csv line 2"},                      // short row
		{"a,b\n1,2\n3,notanumber\n", `csv line 3 field "b"`}, // bad float
		{"a,a\n1,2\n", "duplicate"},                          // duplicate header
		{"a,b\n1,2\n\n\n3,x\n", `csv line 5 field "b" (column 3): strconv.ParseFloat`},
		{"a,b\n\n1,2\n\n3\n", `csv line 5: field "b" missing (1 of 2 fields)`},
		{"a,b\n1,2\n\n\n3,4,5\n", "csv line 5 column 5: 3 fields, the header names 2"},
		{"a,b\n\n1,+Inf\n", `csv line 3 field "b" (column 3): non-finite value "+Inf"`},
		{"a,b\n\n\n", "csv line 2: no rows after the header"},
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v for %q, want it to contain %q", i, err, c.in, c.want)
		}
	}
}

func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		ds := New(MustSchema("p", "q", "r"), n)
		row := make([]float64, 3)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = r.NormFloat64() * 1e6
			}
			ds.Append(row)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil || back.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(back.Row(RowID(i)), ds.Row(RowID(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytes(t *testing.T) {
	ds := New(MustSchema("a", "b", "c"), 0)
	ds.Append([]float64{1, 2, 3})
	ds.Append([]float64{4, 5, 6})
	if got := ds.SizeBytes(); got != 48 {
		t.Errorf("SizeBytes = %d, want 48", got)
	}
}
