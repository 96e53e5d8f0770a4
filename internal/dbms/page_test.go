package dbms

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertAndRecord(t *testing.T) {
	var p Page
	p.initPage()
	if p.NumSlots() != 0 {
		t.Fatalf("fresh page has %d slots", p.NumSlots())
	}
	s0, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 || s1 != 1 || p.NumSlots() != 2 {
		t.Fatalf("slots %d %d count %d", s0, s1, p.NumSlots())
	}
	r0, err := p.Record(0)
	if err != nil || !bytes.Equal(r0, []byte("hello")) {
		t.Errorf("Record(0) = %q, %v", r0, err)
	}
	r1, err := p.Record(1)
	if err != nil || !bytes.Equal(r1, []byte("world!")) {
		t.Errorf("Record(1) = %q, %v", r1, err)
	}
	if _, err := p.Record(2); err == nil {
		t.Error("a slot past the last should not read")
	}
}

func TestPageInsertValidation(t *testing.T) {
	var p Page
	p.initPage()
	if _, err := p.Insert(nil); err == nil {
		t.Error("empty record should fail")
	}
	big := make([]byte, PageSize)
	if _, err := p.Insert(big); err == nil {
		t.Error("oversized record should fail")
	}
}

func TestPageFillsExactly(t *testing.T) {
	var p Page
	p.initPage()
	rec := make([]byte, 44) // same size as a 5-dim row record
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	want := (PageSize - pageHeaderSize) / (44 + slotSize)
	if n != want {
		t.Errorf("page held %d records, want %d", n, want)
	}
	// After filling, every record must read back.
	for i := 0; i < n; i++ {
		if _, err := p.Record(i); err != nil {
			t.Fatalf("record %d unreadable: %v", i, err)
		}
	}
}

func TestQuickPageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Page
		p.initPage()
		var want [][]byte
		for {
			rec := make([]byte, 1+rng.Intn(200))
			rng.Read(rec)
			if _, err := p.Insert(rec); err != nil {
				break
			}
			want = append(want, rec)
			if len(want) > 500 {
				break
			}
		}
		if p.NumSlots() != len(want) {
			return false
		}
		for i, w := range want {
			got, err := p.Record(i)
			if err != nil || !bytes.Equal(got, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRecordCodec(t *testing.T) {
	row := []float64{1.5, -2.25, 3e10}
	rec := make([]byte, recordSize(3))
	encodeRecord(rec, 42, row)
	got := make([]float64, 3)
	id, err := decodeRecord(rec, got)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Errorf("id = %d", id)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Errorf("value %d = %g, want %g", i, got[i], row[i])
		}
	}
	if _, err := decodeRecord(rec[:5], got); err == nil {
		t.Error("short record should fail")
	}
}
