package memcache

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBudgetBasics(t *testing.T) {
	if _, err := NewBudget(0); err == nil {
		t.Error("zero capacity should fail")
	}
	b, err := NewBudget(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 60 || b.Available() != 40 || b.Capacity() != 100 {
		t.Errorf("used=%d avail=%d cap=%d", b.Used(), b.Available(), b.Capacity())
	}
	if err := b.Reserve(50); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
	if b.Used() != 60 {
		t.Error("failed reservation must not claim bytes")
	}
	b.Release(10)
	if b.Used() != 50 {
		t.Errorf("used=%d after release", b.Used())
	}
	if err := b.Reserve(50); err != nil {
		t.Errorf("exact fit should succeed: %v", err)
	}
	if b.Peak() != 100 {
		t.Errorf("peak=%d", b.Peak())
	}
	if err := b.Reserve(-1); err == nil {
		t.Error("negative reservation should fail")
	}
}

func TestBudgetOverReleasePanics(t *testing.T) {
	b, _ := NewBudget(10)
	b.Reserve(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	b.Release(6)
}

func TestTupleBytes(t *testing.T) {
	if TupleBytes(5) != 5*8+48 {
		t.Errorf("TupleBytes(5) = %d", TupleBytes(5))
	}
	if TupleBytes(1) >= TupleBytes(10) {
		t.Error("TupleBytes must grow with dims")
	}
}

func TestSampleIDs(t *testing.T) {
	ids, err := SampleIDs(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("len = %d", len(ids))
	}
	seen := map[uint32]bool{}
	for i, id := range ids {
		if id >= 100 {
			t.Errorf("id %d out of range", id)
		}
		if seen[id] {
			t.Errorf("duplicate id %d", id)
		}
		seen[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Error("ids not sorted ascending")
		}
	}
	// k >= n returns everything.
	all, err := SampleIDs(5, 10, 1)
	if err != nil || len(all) != 5 {
		t.Errorf("k>=n: %v, %v", all, err)
	}
	// Edge cases.
	if ids, err := SampleIDs(0, 5, 1); err != nil || ids != nil {
		t.Error("n=0 should return nil")
	}
	if ids, err := SampleIDs(5, 0, 1); err != nil || ids != nil {
		t.Error("k=0 should return nil")
	}
	if _, err := SampleIDs(-1, 5, 1); err == nil {
		t.Error("negative n should fail")
	}
}

func TestSampleIDsDeterministic(t *testing.T) {
	a, _ := SampleIDs(1000, 50, 7)
	b, _ := SampleIDs(1000, 50, 7)
	c, _ := SampleIDs(1000, 50, 8)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different samples")
		}
		if i < len(c) && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical samples")
	}
}

// sampleIDsMapSort is SampleIDs as it was written first: Floyd's draw into
// a map[uint32]bool, the map ranged over, the ids sorted through sort.Slice.
// It is kept here as the reference the current form must reproduce.
func sampleIDsMapSort(n, k int, seed int64) []uint32 {
	if n == 0 || k == 0 {
		return nil
	}
	if k >= n {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := make(map[uint32]bool, k)
	for j := n - k; j < n; j++ {
		t := uint32(rng.Intn(j + 1))
		if chosen[t] {
			chosen[uint32(j)] = true
		} else {
			chosen[t] = true
		}
	}
	out := make([]uint32, 0, k)
	for id := range chosen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The ids are a function of (n, k, seed) that no rewrite of SampleIDs may
// change — every session's γ-sample, and with it every label sequence and
// golden digest, starts here.
func TestSampleIDsMatchesMapSort(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000, 50_000, 1_000_000} {
		seeds := 40
		if n > 50_000 {
			seeds = 1
		}
		for _, k := range []int{1, n / 2, min(2000, n-1), n - 1, n, n + 1} {
			for seed := int64(0); seed < int64(seeds); seed++ {
				got, err := SampleIDs(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				if want := sampleIDsMapSort(n, k, seed); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d seed=%d: %d ids differ from the map-and-sort draw's %d", n, k, seed, len(got), len(want))
				}
			}
		}
	}
}

// TestSampleIDsRecorded pins SampleIDs' output for a few (n, k, seed),
// recorded from the map-and-sort draw: the edges (k = 0, n = 1, k >= n, a
// bitset word exactly full or one past full) and a few draws in the middle.
func TestSampleIDsRecorded(t *testing.T) {
	upTo := func(n int, skip uint32) []uint32 {
		var out []uint32
		for id := uint32(0); id < uint32(n); id++ {
			if id != skip {
				out = append(out, id)
			}
		}
		return out
	}
	for _, c := range []struct {
		n, k int
		seed int64
		want []uint32
	}{
		{1, 0, 1, nil},
		{1, 1, 1, []uint32{0}},
		{1, 5, 3, []uint32{0}},
		{5, 10, 3, []uint32{0, 1, 2, 3, 4}},
		{10, 3, 1, []uint32{1, 6, 7}},
		{64, 63, 2, upTo(64, 30)},
		{65, 64, 9, upTo(65, 9)},
		{37, 36, -5, upTo(37, 32)},
		{100, 10, 7, []uint32{2, 6, 11, 20, 52, 55, 70, 82, 84, 96}},
		{1000, 20, 42, []uint32{96, 169, 242, 243, 366, 367, 393, 396, 403, 458, 504, 535, 555, 573, 592, 673, 782, 811, 840, 963}},
	} {
		got, err := SampleIDs(c.n, c.k, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("SampleIDs(%d, %d, %d) = %v, want %v", c.n, c.k, c.seed, got, c.want)
		}
	}
}

func TestQuickSampleIDsUniform(t *testing.T) {
	// Property: sampled ids are distinct, in range, sorted, correct count.
	f := func(seed int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw % 600)
		ids, err := SampleIDs(n, k, seed)
		if err != nil {
			return false
		}
		wantLen := k
		if k > n {
			wantLen = n
		}
		if k == 0 {
			return ids == nil
		}
		if len(ids) != wantLen {
			return false
		}
		for i, id := range ids {
			if int(id) >= n {
				return false
			}
			if i > 0 && ids[i-1] >= id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleIDsCoverage(t *testing.T) {
	// Statistical: each id should be chosen roughly k/n of the time.
	counts := make([]int, 20)
	const trials = 2000
	for s := 0; s < trials; s++ {
		ids, _ := SampleIDs(20, 5, int64(s))
		for _, id := range ids {
			counts[id]++
		}
	}
	want := float64(trials) * 5 / 20
	for id, n := range counts {
		if math.Abs(float64(n)-want) > want*0.25 {
			t.Errorf("id %d chosen %d times, want ~%.0f", id, n, want)
		}
	}
}

func newTestCache(t *testing.T, capacityTuples int) (*Cache, *Budget) {
	t.Helper()
	b, err := NewBudget(int64(capacityTuples) * TupleBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c, b
}

func TestCacheValidation(t *testing.T) {
	b, _ := NewBudget(100)
	if _, err := NewCache(nil, 2); err == nil {
		t.Error("nil budget should fail")
	}
	if _, err := NewCache(b, 0); err == nil {
		t.Error("zero dims should fail")
	}
}

func TestCacheSampleAndBudget(t *testing.T) {
	c, b := newTestCache(t, 3)
	if err := c.AddSample(1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(1, []float64{1, 1}); err != nil {
		t.Fatal(err) // duplicate is a no-op
	}
	if c.Len() != 1 || b.Used() != TupleBytes(2) {
		t.Errorf("len=%d used=%d", c.Len(), b.Used())
	}
	if err := c.AddSample(2, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(3, []float64{3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSample(4, []float64{4, 4}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want budget error, got %v", err)
	}
	if err := c.AddSample(5, []float64{1}); err == nil {
		t.Error("dims mismatch should fail")
	}
	row, ok := c.Get(2)
	if !ok || row[0] != 2 {
		t.Error("Get failed")
	}
	if _, ok := c.Get(99); ok {
		t.Error("Get(99) should miss")
	}
}

// TestCacheAddSamplesBatch: a batch reserves once for the ids it installs
// (held and labeled ids skipped), a batch that does not fit installs
// nothing, ids interleaving the resident ones keep the sample sorted, and
// ids that do not ascend strictly are refused.
func TestCacheAddSamplesBatch(t *testing.T) {
	c, b := newTestCache(t, 5)
	if err := c.AddSamples([]uint32{2, 6}, [][]float64{{2, 2}, {6, 6}}); err != nil {
		t.Fatal(err)
	}
	c.Remove(4)
	if err := c.AddSamples([]uint32{1, 2, 4, 5, 7, 8}, [][]float64{{1, 1}, {2, 2}, {4, 4}, {5, 5}, {7, 7}, {8, 8}}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("4 new rows into room for 3: %v", err)
	}
	if c.SampleLen() != 2 || b.Used() != 2*TupleBytes(2) {
		t.Fatalf("failed batch left %d rows, %d bytes used", c.SampleLen(), b.Used())
	}
	if err := c.AddSamples([]uint32{1, 2, 4, 5, 7}, [][]float64{{1, 1}, {2, 2}, {4, 4}, {5, 5}, {7, 7}}); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 5*TupleBytes(2) {
		t.Errorf("%d bytes used, want 5 tuples", b.Used())
	}
	var got []uint32
	c.EachSorted(func(id uint32, row []float64) bool {
		if row[0] != float64(id) {
			t.Errorf("row %d holds %v", id, row)
		}
		got = append(got, id)
		return true
	})
	if want := []uint32{1, 2, 5, 6, 7}; !slices.Equal(got, want) {
		t.Errorf("sample %v, want %v", got, want)
	}
	if err := c.AddSamples([]uint32{9, 9}, [][]float64{{9, 9}, {9, 9}}); err == nil {
		t.Error("repeated ids should fail")
	}
}

func TestCacheRegionSwap(t *testing.T) {
	c, b := newTestCache(t, 10)
	c.AddSample(1, []float64{1, 1})
	if c.RegionCell() != NoRegion {
		t.Error("fresh cache should have no region")
	}
	err := c.SetRegion(7, []uint32{10, 11, 1}, [][]float64{{10, 10}, {11, 11}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.RegionCell() != 7 {
		t.Errorf("RegionCell = %d", c.RegionCell())
	}
	// id 1 overlaps the sample: not double-counted.
	if c.RegionLen() != 2 || c.Len() != 3 {
		t.Errorf("regionLen=%d len=%d", c.RegionLen(), c.Len())
	}
	usedAfterFirst := b.Used()
	if usedAfterFirst != 3*TupleBytes(2) {
		t.Errorf("used=%d, want %d", usedAfterFirst, 3*TupleBytes(2))
	}
	// Swapping regions releases the old one.
	err = c.SetRegion(8, []uint32{20}, [][]float64{{20, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if c.RegionCell() != 8 || c.RegionLen() != 1 {
		t.Errorf("cell=%d regionLen=%d", c.RegionCell(), c.RegionLen())
	}
	if b.Used() != 2*TupleBytes(2) {
		t.Errorf("used=%d after swap", b.Used())
	}
	c.DropRegion()
	if c.RegionCell() != NoRegion || c.RegionLen() != 0 || b.Used() != TupleBytes(2) {
		t.Error("DropRegion incomplete")
	}
}

func TestCacheRegionValidation(t *testing.T) {
	c, _ := newTestCache(t, 10)
	if err := c.SetRegion(1, []uint32{1}, nil); err == nil {
		t.Error("ids/rows mismatch should fail")
	}
	if err := c.SetRegion(-1, nil, nil); err == nil {
		t.Error("negative cell should fail")
	}
	if err := c.SetRegion(1, []uint32{1}, [][]float64{{1}}); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestCacheRegionBudgetTruncation(t *testing.T) {
	c, _ := newTestCache(t, 2)
	ids := []uint32{1, 2, 3, 4}
	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	err := c.SetRegion(5, ids, rows)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	if c.RegionLen() != 2 {
		t.Errorf("truncated region has %d rows, want 2", c.RegionLen())
	}
}

func TestCacheRemoveLabeled(t *testing.T) {
	c, b := newTestCache(t, 10)
	c.AddSample(1, []float64{1, 1})
	c.SetRegion(3, []uint32{2}, [][]float64{{2, 2}})
	c.Remove(1)
	c.Remove(2)
	c.Remove(2) // idempotent
	if c.Len() != 0 || b.Used() != 0 {
		t.Errorf("len=%d used=%d after removals", c.Len(), b.Used())
	}
	// Labeled tuples never come back.
	if err := c.AddSample(1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("labeled tuple resurrected via AddSample")
	}
	if err := c.SetRegion(4, []uint32{2}, [][]float64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if c.RegionLen() != 0 {
		t.Error("labeled tuple resurrected via SetRegion")
	}
}

func TestCacheEachSorted(t *testing.T) {
	c, _ := newTestCache(t, 10)
	c.AddSample(5, []float64{5, 5})
	c.AddSample(1, []float64{1, 1})
	c.SetRegion(2, []uint32{3}, [][]float64{{3, 3}})
	var got []uint32
	c.EachSorted(func(id uint32, row []float64) bool {
		got = append(got, id)
		return true
	})
	want := []uint32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	c.EachSorted(func(uint32, []float64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestQuickCacheBudgetInvariant(t *testing.T) {
	// Property: budget usage always equals resident tuples x TupleBytes.
	f := func(ops []uint16) bool {
		b, _ := NewBudget(1 << 30)
		c, _ := NewCache(b, 2)
		for _, op := range ops {
			id := uint32(op % 64)
			switch op % 4 {
			case 0:
				c.AddSample(id, []float64{float64(id), 0})
			case 1:
				c.SetRegion(int(op%8), []uint32{id, id + 1}, [][]float64{{1, 1}, {2, 2}})
			case 2:
				c.Remove(id)
			case 3:
				c.DropRegion()
			}
			if b.Used() != int64(c.Len())*TupleBytes(2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
