package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
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

// csvReader streams the rows of a numeric CSV with a header row, one row
// at a time, so a file larger than memory can be read through it. Every
// field must parse as a finite float64, and at least one row must follow
// the header. name is what errors call the input: "csv", or a file's path.
type csvReader struct {
	cr     *csv.Reader
	name   string
	file   io.Closer // a CSVFile's, closed by Close
	schema Schema
	row    []float64
	rows   int
}

// newCSVReader reads the header row and returns a reader positioned at the
// first data row. Like every error of the reader, a refused header names
// its line.
func newCSVReader(r io.Reader, name string) (*csvReader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: read %s header: no header row at line 1 or after", name)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: read %s header: %w", name, err)
	}
	schema, err := NewSchema(append([]string(nil), header...)...)
	if err != nil {
		line, _ := cr.FieldPos(0)
		return nil, fmt.Errorf("dataset: %s header line %d: %w", name, line, err)
	}
	return &csvReader{cr: cr, name: name, schema: schema, row: make([]float64, schema.Dims())}, nil
}

// Next returns the next row, or ok=false at the end of the input. The row
// is overwritten by the next call. Errors name the physical line of the
// input (blank lines count) and the column at fault.
func (r *csvReader) Next() (row []float64, ok bool, err error) {
	rec, ok, err := r.read()
	if !ok {
		return nil, false, err
	}
	for i, f := range rec {
		v, err := strconv.ParseFloat(f, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("non-finite value %q", f)
		}
		if err != nil {
			line, col := r.cr.FieldPos(i)
			return nil, false, fmt.Errorf("dataset: %s line %d field %q (column %d): %w", r.name, line, r.schema.Columns[i].Name, col, err)
		}
		r.row[i] = v
	}
	r.rows++
	return r.row, true, nil
}

// Skip passes over the next record, checking its width but parsing none
// of its fields.
func (r *csvReader) Skip() (ok bool, err error) {
	if _, ok, err = r.read(); ok {
		r.rows++
	}
	return ok, err
}

// read returns the next record, or ok=false at the end of the input or on
// an error: a missing row after the header, or a record of the wrong width.
func (r *csvReader) read() (rec []string, ok bool, err error) {
	rec, err = r.cr.Read()
	if err == io.EOF {
		if r.rows == 0 {
			line, _ := r.cr.FieldPos(0) // the header's
			return nil, false, fmt.Errorf("dataset: %s line %d: no rows after the header", r.name, line+1)
		}
		return nil, false, nil
	}
	var pe *csv.ParseError
	if errors.As(err, &pe) && pe.Err == csv.ErrFieldCount {
		// The header fixed the width; the record came back with the error.
		if len(rec) > len(r.row) {
			line, col := r.cr.FieldPos(len(r.row))
			return nil, false, fmt.Errorf("dataset: read %s line %d column %d: %d fields, the header names %d", r.name, line, col, len(rec), len(r.row))
		}
		return nil, false, fmt.Errorf("dataset: read %s line %d: field %q missing (%d of %d fields)", r.name, pe.Line, r.schema.Columns[len(rec)].Name, len(rec), len(r.row))
	}
	if err != nil {
		return nil, false, fmt.Errorf("dataset: read %s: %w", r.name, err)
	}
	return rec, true, nil
}

// Close closes the file a CSVFile pass reads.
func (r *csvReader) Close() error {
	if r.file == nil {
		return nil
	}
	return r.file.Close()
}

// CSVFile is a numeric CSV file with a header row read as a Source: every
// pass re-reads the file, so a file larger than memory can feed a build
// that reads it more than once.
type CSVFile struct {
	path   string
	schema Schema
}

// OpenCSVFile reads the header of the CSV file at path.
func OpenCSVFile(path string) (*CSVFile, error) {
	f := &CSVFile{path: path}
	r, err := f.open()
	if err != nil {
		return nil, err
	}
	f.schema = r.schema
	return f, r.Close()
}

// Schema returns the columns the header names.
func (f *CSVFile) Schema() Schema { return f.schema }

// Rows starts a pass over the file's rows; a header changed since
// OpenCSVFile fails it.
func (f *CSVFile) Rows() (Rows, error) {
	r, err := f.open()
	if err == nil && !r.schema.Equal(f.schema) {
		r.Close()
		err = fmt.Errorf("dataset: %s: header changed from %v to %v", f.path, f.schema, r.schema)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (f *CSVFile) open() (*csvReader, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", f.path, err)
	}
	r, err := newCSVReader(file, f.path)
	if err != nil {
		file.Close()
		return nil, err
	}
	r.file = file
	return r, nil
}

// ReadCSV reads a dataset written by WriteCSV (or any numeric CSV with a
// header) into memory.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr, err := newCSVReader(r, "csv")
	if err != nil {
		return nil, err
	}
	ds := New(cr.schema, 0)
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
