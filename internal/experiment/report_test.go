package experiment

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

func TestWriteSeriesCSV(t *testing.T) {
	a := &metrics.Series{Name: "UEI"}
	a.Append(5, 0.5)
	a.Append(10, 0.8)
	b := &metrics.Series{Name: "DBMS"}
	b.Append(10, 0.6)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "labels", a, b); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("got %d rows", len(records))
	}
	if records[0][0] != "labels" || records[0][1] != "UEI" || records[0][2] != "DBMS" {
		t.Errorf("header = %v", records[0])
	}
	// At x=5 the DBMS series has no value yet.
	if records[1][0] != "5" || records[1][1] != "0.5" || records[1][2] != "" {
		t.Errorf("row 1 = %v", records[1])
	}
	if records[2][0] != "10" || records[2][1] != "0.8" || records[2][2] != "0.6" {
		t.Errorf("row 2 = %v", records[2])
	}
}

func TestExportComparisonCSV(t *testing.T) {
	uei := SchemeResult{Accuracy: &metrics.Series{Name: "UEI"}, Latency: &obs.Samples{}}
	dbms := SchemeResult{Accuracy: &metrics.Series{Name: "DBMS"}, Latency: &obs.Samples{}}
	uei.Accuracy.Append(5, 0.4)
	dbms.Accuracy.Append(5, 0.3)
	uei.Latency.Observe(10 * time.Millisecond)
	dbms.Latency.Observe(500 * time.Millisecond)
	res := &ComparisonResult{Class: oracle.Medium, UEI: uei, DBMS: dbms}

	dir := t.TempDir()
	paths, err := ExportComparisonCSV(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	acc, err := os.ReadFile(filepath.Join(dir, "fig4_accuracy.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(acc), "UEI") {
		t.Errorf("accuracy csv:\n%s", acc)
	}
	lat, err := os.ReadFile(filepath.Join(dir, "fig6_medium_latency.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lat), "uei") || !strings.Contains(string(lat), "dbms") {
		t.Errorf("latency csv:\n%s", lat)
	}
	if !strings.Contains(string(lat), "10.000") {
		t.Errorf("latency csv missing mean:\n%s", lat)
	}
	// The dbms iteration took exactly 500 ms: compliant, as everywhere.
	rows, err := csv.NewReader(bytes.NewReader(lat)).ReadAll()
	if err != nil || len(rows) != 3 {
		t.Fatalf("latency csv rows = %v, %v", rows, err)
	}
	if rows[0][5] != "frac_under_500ms" || rows[2][0] != "dbms" || rows[2][5] != "1.000" {
		t.Errorf("dbms row = %v, want frac_under_500ms 1.000 for a 500 ms iteration", rows[2])
	}
}
