package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
)

// changingSource serves its first passes from one dataset and every pass
// from the from-th on from another: a file rewritten during a build.
type changingSource struct {
	first, later *dataset.Dataset
	from, passes int
}

func (c *changingSource) Schema() dataset.Schema { return c.first.Schema() }

func (c *changingSource) Rows() (dataset.Rows, error) {
	if c.passes++; c.passes >= c.from {
		return c.later.Rows()
	}
	return c.first.Rows()
}

// requireRefused builds src into a directory the build must create and
// into an empty one; each build must fail naming want and leave the
// directory as it found it.
func requireRefused(t *testing.T, name string, src func() dataset.Source, opts BuildOptions, want string) {
	t.Helper()
	absent, empty := filepath.Join(t.TempDir(), "store"), t.TempDir()
	for _, dir := range []string{absent, empty} {
		err := Build(dir, src(), opts)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, want)
		}
	}
	if _, err := os.Stat(absent); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("%s: the refused build left %s behind (stat: %v)", name, absent, err)
	}
	if left, err := os.ReadDir(empty); err != nil || len(left) > 0 {
		t.Errorf("%s: the refused build left %d entries in an empty directory (%v)", name, len(left), err)
	}
}

// TestBuildRefusesBadSources: a CSV with a short or long row, a non-finite
// or unparsable field, or no row after its header fails the build at one
// shard, at S = 3 and live at S = 2, naming the physical line (blank lines
// count) and the column; a source whose rows change between the passes of
// a sharded build — fewer, more, or one outside the bounds the first pass
// pinned — fails naming the change. Every refused build leaves the target
// directory as it found it: absent, or empty.
func TestBuildRefusesBadSources(t *testing.T) {
	layouts := map[string]BuildOptions{
		"one shard": {TargetChunkBytes: 2048},
		"S=3":       {TargetChunkBytes: 2048, Shards: 3},
		"live S=2":  {TargetChunkBytes: 2048, Shards: 2, LiveIngest: true},
	}
	rows := "a,b\n1,2\n\n3,4\n\n"
	for _, c := range []struct{ name, csv, want string }{
		{"short row", rows + "5\n", `line 6: field "b" missing`},
		{"long row", rows + "5,6,7\n", "line 6 column 5: 3 fields"},
		{"non-finite", rows + "5,NaN\n", `line 6 field "b" (column 3): non-finite value "NaN"`},
		{"unparsable", rows + "5,x\n", `line 6 field "b" (column 3): strconv.ParseFloat`},
		{"header only", "\na,b\n\n", "line 3: no rows after the header"},
	} {
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, []byte(c.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		csv, err := dataset.OpenCSVFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for layout, opts := range layouts {
			requireRefused(t, c.name+" at "+layout, func() dataset.Source { return csv }, opts, "in.csv "+c.want)
		}
	}

	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(n int, row7 func(row []float64)) *dataset.Dataset {
		out := dataset.New(ds.Schema(), n)
		for i := 0; i < n; i++ {
			row := ds.CopyRow(dataset.RowID(i % ds.Len()))
			if i == 7 {
				row7(row)
			}
			out.Append(row)
		}
		return out
	}
	keep := func([]float64) {}
	for _, c := range []struct {
		name  string
		later *dataset.Dataset
		want  string
	}{
		{"fewer rows", edit(ds.Len()-1, keep), "a pass ended after 599 of its 600 rows"},
		{"more rows", edit(ds.Len()+1, keep), "a pass holds more than its 600 rows"},
		{"out of bounds", edit(ds.Len(), func(row []float64) { row[1] = bounds.Max[1] + 1 }),
			"row 7 column \"" + ds.Schema().Columns[1].Name + "\""},
	} {
		// From the second pass the owner pass sees the change; from the
		// third, a shard's pass does, after a part is written.
		for from := 2; from <= 3; from++ {
			for _, layout := range []string{"S=3", "live S=2"} {
				src := func() dataset.Source { return &changingSource{first: ds, later: c.later, from: from} }
				requireRefused(t, c.name+" at "+layout, src, layouts[layout], c.want)
			}
		}
	}
}
