package dataset

import (
	"bytes"
	"errors"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lineRef matches the line number an error of the CSV reader names.
var lineRef = regexp.MustCompile(`line (\d+)`)

// checkNamesLine fails err unless it names a line of input: 1 up to one
// past its last line (a file that ends after its header is refused at the
// line a row would start).
func checkNamesLine(t *testing.T, err error, input []byte) {
	t.Helper()
	m := lineRef.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("refusal names no line: %v", err)
	}
	line, _ := strconv.Atoi(m[1])
	if lines := bytes.Count(input, []byte("\n")) + 1; line < 1 || line > lines+1 {
		t.Fatalf("refusal names line %d of a %d-line input: %v", line, lines, err)
	}
}

// isValueError reports whether err is Next's refusal of a field's value
// (unparsable, out of range or non-finite), not of the record's structure.
func isValueError(err error) bool {
	var num *strconv.NumError
	return errors.As(err, &num) || strings.Contains(err.Error(), "non-finite value")
}

// FuzzCSVRows drives the streaming CSV reader over any input. Next and
// Skip never panic, and a refused input fails naming its line. Skip, which
// parses no field, fails on exactly the records whose structure — CSV
// syntax or width — Next fails on, with the same error, and never on a
// record Next accepts or refuses only for a value. An input Next reads
// whole, written back by WriteCSV and read again, yields the same values.
// The seeds hold the refusals: a row of the wrong width, a non-finite
// value and a bad header.
func FuzzCSVRows(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n3.5,-4e3\n",
		"a,b\n1,2\n\n\n3,4\n",
		"a,b\n1\n",          // a field missing
		"a,b\n1,2\n3,4,5\n", // a field too many
		"a,b\n1,NaN\n",      // non-finite
		"a,b\n\n1,+Inf\n",   // non-finite, after a blank line
		"a,b\n1,1e400\n",    // out of range
		"a,b\n1,x\n",        // unparsable
		"",                  // no header
		"\n\n",              // no header, blank lines
		"a,a\n1,2\n",        // a repeated column
		"a,\n1,2\n",         // an empty column name
		"a,b\n",             // no row after the header
		"a,b\n\n\n",         // no row after the header, blank lines
		"a,\"b\n1,2\n",      // unterminated quote
		"a,b\"c\n1,2\n",     // bare quote
		"\"x,y\",z\n-0,0x1p-2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		next, err := newCSVReader(bytes.NewReader(input), "csv")
		if err != nil {
			checkNamesLine(t, err, input)
			return
		}
		skip, err := newCSVReader(bytes.NewReader(input), "csv")
		if err != nil {
			t.Fatalf("a second reader refused the header the first accepted: %v", err)
		}
		var rows [][]float64
		for i := 0; ; i++ {
			row, ok, nerr := next.Next()
			sok, serr := skip.Skip()
			if nerr != nil {
				checkNamesLine(t, nerr, input)
				if isValueError(nerr) {
					if serr != nil || !sok {
						t.Fatalf("record %d: Next refused a value (%v), Skip = %v, %v; want it passed over", i, nerr, sok, serr)
					}
				} else if serr == nil || serr.Error() != nerr.Error() {
					t.Fatalf("record %d: Next refused its structure (%v), Skip err = %v", i, nerr, serr)
				}
				return
			}
			if serr != nil || sok != ok {
				t.Fatalf("record %d: Next accepted it (ok = %v), Skip = %v, %v", i, ok, sok, serr)
			}
			if !ok {
				break
			}
			rows = append(rows, slices.Clone(row))
		}
		ds := New(next.schema, len(rows))
		for _, row := range rows {
			if _, err := ds.Append(row); err != nil {
				t.Fatalf("an accepted row does not append: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("an accepted input written back is refused: %v\n%q", err, buf.String())
		}
		if !back.Schema().Equal(ds.Schema()) || back.Len() != ds.Len() {
			t.Fatalf("written back: %v with %d rows, want %v with %d", back.Schema(), back.Len(), ds.Schema(), ds.Len())
		}
		for i := range rows {
			if got := back.Row(RowID(i)); !slices.Equal(got, rows[i]) {
				t.Fatalf("row %d written back reads %v, want %v", i, got, rows[i])
			}
		}
	})
}
