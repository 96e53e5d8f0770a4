package dataset

import (
	"bytes"
	"math/rand"
	"path/filepath"
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
	if !vec.Equal(b.Min, []float64{0, 1}) || !vec.Equal(b.Max, []float64{2, 5}) {
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
		if !vec.Equal(a.Row(RowID(i)), b.Row(RowID(i))) {
			t.Fatalf("row %d differs between equal seeds", i)
		}
	}
	c, err := GenerateSky(SkyConfig{N: 500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Len() && same; i++ {
		same = vec.Equal(a.Row(RowID(i)), c.Row(RowID(i)))
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

func TestGenerateUniform(t *testing.T) {
	box := vec.NewBox([]float64{-1, 0}, []float64{1, 10})
	ds, err := GenerateUniform(MustSchema("x", "y"), box, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds.Scan(func(id RowID, row []float64) bool {
		if !box.Contains(row) {
			t.Fatalf("row %v escaped box", row)
		}
		return true
	})
	if _, err := GenerateUniform(MustSchema("x"), box, 10, 0); err == nil {
		t.Error("dims mismatch should fail")
	}
	if _, err := GenerateUniform(MustSchema("x", "y"), box, 0, 0); err == nil {
		t.Error("n=0 should fail")
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
		if !vec.Equal(back.Row(RowID(i)), ds.Row(RowID(i))) {
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

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"a,b\n1\n",            // short row
		"a,b\n1,notanumber\n", // bad float
		"a,a\n1,2\n",          // duplicate header
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
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
			if !vec.Equal(back.Row(RowID(i)), ds.Row(RowID(i))) {
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
