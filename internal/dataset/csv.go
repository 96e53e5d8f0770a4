package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the dataset with a header row of column names.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Schema().Names()); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	rec := make([]string, d.Dims())
	var scanErr error
	d.Scan(func(id RowID, row []float64) bool {
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			scanErr = fmt.Errorf("dataset: write csv row %d: %w", id, err)
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	cw.Flush()
	return cw.Error()
}

// CSVReader streams the rows of a numeric CSV with a header row, one row
// at a time, so a file larger than memory can be read through it. Every
// field must parse as a float64.
type CSVReader struct {
	cr     *csv.Reader
	schema Schema
	row    []float64
	line   int
}

// NewCSVReader reads the header row and returns a reader positioned at the
// first data row.
func NewCSVReader(r io.Reader) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
	schema, err := NewSchema(append([]string(nil), header...)...)
	if err != nil {
		return nil, err
	}
	return &CSVReader{cr: cr, schema: schema, row: make([]float64, schema.Dims()), line: 1}, nil
}

// Schema returns the columns the header names.
func (r *CSVReader) Schema() Schema { return r.schema }

// Next returns the next row, or ok=false at the end of the input. The row
// is overwritten by the next call. Errors name the line and, for a field
// that does not parse, the column.
func (r *CSVReader) Next() (row []float64, ok bool, err error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return nil, false, nil
	}
	r.line++
	if err != nil {
		return nil, false, fmt.Errorf("dataset: read csv line %d: %w", r.line, err)
	}
	if len(rec) != len(r.row) {
		return nil, false, fmt.Errorf("dataset: csv line %d has %d fields, want %d", r.line, len(rec), len(r.row))
	}
	for i, f := range rec {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, false, fmt.Errorf("dataset: csv line %d field %q: %w", r.line, r.schema.Columns[i].Name, err)
		}
		r.row[i] = v
	}
	return r.row, true, nil
}

// ReadCSV reads a dataset written by WriteCSV (or any numeric CSV with a
// header) into memory.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr, err := NewCSVReader(r)
	if err != nil {
		return nil, err
	}
	ds := New(cr.Schema(), 0)
	for {
		row, ok, err := cr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return ds, nil
		}
		if _, err := ds.Append(row); err != nil {
			return nil, err
		}
	}
}

// WriteCSVFile writes the dataset to path, creating or truncating it.
func WriteCSVFile(path string, d *Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close %s: %w", path, cerr)
		}
	}()
	return WriteCSV(f, d)
}

// ReadCSVFile reads a dataset from path.
func ReadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(f)
}
