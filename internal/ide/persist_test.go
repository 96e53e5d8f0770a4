package ide

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/oracle"
)

func TestSnapshotRoundTrip(t *testing.T) {
	f := newFixture(t, 1200, 0.02)
	p := f.dbmsProvider(t, 8)
	cfg := Config{
		MaxLabels:        15,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             21,
		SeedWithPositive: true,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if len(snap.IDs) != 15 {
		t.Fatalf("snapshot holds %d labels", len(snap.IDs))
	}

	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.IDs) != len(snap.IDs) {
		t.Fatalf("round trip lost labels: %d vs %d", len(back.IDs), len(snap.IDs))
	}
	for i := range snap.IDs {
		if back.IDs[i] != snap.IDs[i] || back.Y[i] != snap.Y[i] {
			t.Fatalf("entry %d differs", i)
		}
		for j := range snap.X[i] {
			if back.X[i][j] != snap.X[i][j] {
				t.Fatalf("row %d value %d differs", i, j)
			}
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	bad := []Snapshot{
		{},
		{FormatVersion: snapshotFormatVersion},
		{FormatVersion: snapshotFormatVersion, IDs: []uint32{1}, X: [][]float64{{1}}, Y: []int{5}},
		{FormatVersion: snapshotFormatVersion, IDs: []uint32{1, 2}, X: [][]float64{{1}}, Y: []int{0, 1}},
		{FormatVersion: snapshotFormatVersion, IDs: []uint32{1, 2}, X: [][]float64{{1}, {1, 2}}, Y: []int{0, 1}},
		{FormatVersion: 99, IDs: []uint32{1}, X: [][]float64{{1}}, Y: []int{0}},
	}
	for i, snap := range bad {
		var buf bytes.Buffer
		if err := snap.Save(&buf); err == nil {
			t.Errorf("case %d: Save accepted invalid snapshot", i)
		}
	}
	if _, err := ReadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Error("garbage snapshot should fail")
	}
}

// The parser refuses what Save cannot have written — a torn or padded file,
// another format, arrays that disagree, a ragged row, a label that is not
// binary — with an error naming it.
func TestParseSnapshotRefuses(t *testing.T) {
	good := `{"format_version":1,"ids":[4,9],"x":[[1,2],[3,4]],"y":[0,1]}`
	if _, err := parseSnapshot([]byte(good + "\n")); err != nil {
		t.Fatalf("a snapshot as Save writes it: %v", err)
	}
	for _, c := range []struct{ name, data, want string }{
		{"torn", good[:30], "decode"},
		{"trailing-value", good + good, "decode"},
		{"format", strings.Replace(good, `"format_version":1`, `"format_version":2`, 1), "format"},
		{"arrays-disagree", strings.Replace(good, `"y":[0,1]`, `"y":[0]`, 1), "disagree"},
		{"ragged-row", strings.Replace(good, `[3,4]`, `[3]`, 1), "dims"},
		{"label", strings.Replace(good, `"y":[0,1]`, `"y":[0,2]`, 1), "binary"},
		{"empty", `{"format_version":1}`, "empty"},
		{"id-out-of-range", strings.Replace(good, `[4,9]`, `[4,4294967296]`, 1), "decode"},
	} {
		if _, err := parseSnapshot([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzReadSnapshot feeds bytes to the snapshot parser, which must return
// without panicking. A snapshot it accepts must survive Save: ReadSnapshot
// returns Save's bytes as the same value, and Save writes that value as the
// same bytes again. The committed corpus under testdata/fuzz/ holds a
// snapshot as Save writes it, one with −0, an exponent and a null row, keys
// in another case and repeated, and the refusals of TestParseSnapshotRefuses.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := parseSnapshot(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := snap.Save(&buf); err != nil {
			t.Fatalf("accepted a snapshot Save refuses: %v", err)
		}
		enc := slices.Clone(buf.Bytes())
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("Save wrote %q, which ReadSnapshot refuses: %v", enc, err)
		}
		if !reflect.DeepEqual(back, snap) {
			t.Fatalf("accepted %+v, read back %+v from %q", snap, back, enc)
		}
		var again bytes.Buffer
		if err := back.Save(&again); err != nil || !bytes.Equal(again.Bytes(), enc) {
			t.Fatalf("Save wrote %q, then %q (%v)", enc, again.Bytes(), err)
		}
	})
}

func TestResumeContinuesExploration(t *testing.T) {
	f := newFixture(t, 2500, 0.01)
	// Phase 1: 20 labels over the DBMS provider.
	p1 := f.dbmsProvider(t, 8)
	cfg := Config{
		MaxLabels:        20,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             31,
		SeedWithPositive: true,
	}
	sess1, err := NewSession(cfg, p1, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := sess1.Snapshot()

	// Phase 2: resume onto a FRESH provider (fresh oracle counter too) and
	// keep exploring; the resumed session must not re-run initial
	// acquisition and must not re-select already-labeled tuples.
	orc2, err := oracle.New(f.ds, f.region)
	if err != nil {
		t.Fatal(err)
	}
	p2 := f.dbmsProvider(t, 8)
	var picks []uint32
	cfg2 := cfg
	cfg2.MaxLabels = 10
	cfg2.SeedWithPositive = false
	cfg2.OnIteration = func(it IterationInfo) { picks = append(picks, it.SelectedID) }
	sess2, err := NewSessionFromSnapshot(cfg2, p2, OracleLabeler{O: orc2}, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed != 10 {
		t.Errorf("resumed session used %d labels, want 10", res.LabelsUsed)
	}
	already := make(map[uint32]bool, len(snap.IDs))
	for _, id := range snap.IDs {
		already[id] = true
	}
	for _, id := range picks {
		if already[id] {
			t.Fatalf("resumed session re-selected labeled tuple %d", id)
		}
	}
	if sess2.LabeledCount() != len(snap.IDs)+10 {
		t.Errorf("resumed L holds %d labels, want %d", sess2.LabeledCount(), len(snap.IDs)+10)
	}
}

func TestResumeRejectsBadSnapshot(t *testing.T) {
	f := newFixture(t, 300, 0.05)
	p := f.dbmsProvider(t, 4)
	cfg := Config{
		MaxLabels:        5,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
	}
	if _, err := NewSessionFromSnapshot(cfg, p, OracleLabeler{O: f.orc}, Snapshot{}); err == nil {
		t.Error("empty snapshot should fail")
	}
}

func TestMultiSeedBootstrap(t *testing.T) {
	// Two disjoint regions; SeedCount 2 must label one positive in each.
	ds := f2Dataset(t)
	a, err := oracle.NewRegion([]float64{100, 100, 100, 0, 100}, []float64{50, 50, 50, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := oracle.NewRegion([]float64{1900, 1900, 300, 80, 900}, []float64{100, 100, 50, 9, 90})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := oracle.NewMultiRegion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.NewMulti(ds, mr)
	if err != nil {
		t.Fatal(err)
	}
	if orc.RelevantCount() == 0 {
		t.Skip("generated data misses the fixed regions")
	}
	l := OracleLabeler{O: orc}
	ids, rows, err := l.SeedPositives(2)
	if err != nil || len(ids) == 0 {
		t.Fatalf("no seeds (%v)", err)
	}
	for i, id := range ids {
		if !l.IsRelevant(id, rows[i]) {
			t.Errorf("seed %d not relevant", id)
		}
		if len(rows[i]) != ds.Dims() {
			t.Errorf("seed row %d malformed", i)
		}
	}
	// If both regions hold data, seeds must come from distinct regions.
	if len(ids) == 2 {
		inA := a.Contains(rows[0]) || a.Contains(rows[1])
		inB := b.Contains(rows[0]) || b.Contains(rows[1])
		if !inA || !inB {
			t.Error("seeds not spread across regions")
		}
	}
}

func TestSeedCountValidation(t *testing.T) {
	f := newFixture(t, 300, 0.05)
	p := f.dbmsProvider(t, 4)
	cfg := Config{
		MaxLabels:        5,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		SeedWithPositive: true,
		SeedCount:        -1,
	}
	if _, err := NewSession(cfg, p, OracleLabeler{O: f.orc}); err == nil {
		t.Error("negative SeedCount should fail")
	}
	cfg.SeedCount = 2
	if _, err := NewSession(cfg, p, OracleLabeler{O: f.orc}); err != nil {
		t.Errorf("OracleLabeler supports multi-seed: %v", err)
	}
	plain := plainLabeler{o: f.orc}
	cfg.SeedWithPositive = false
	cfg.SeedCount = 2
	if _, err := NewSession(cfg, p, plain); err != nil {
		t.Errorf("SeedCount without SeedWithPositive is harmless: %v", err)
	}
}

// f2Dataset builds a moderate sky dataset for the multi-seed test.
func f2Dataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 20000, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
