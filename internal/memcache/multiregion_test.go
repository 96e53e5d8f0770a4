package memcache

import (
	"slices"
	"testing"
	"testing/quick"
)

// resident reports whether cell's region is resident without touching it.
func resident(c *Cache, cell int) bool { return slices.Contains(c.ResidentRegions(), cell) }

func TestSetMaxRegionsValidation(t *testing.T) {
	c, _ := newTestCache(t, 20)
	if err := c.SetMaxRegions(0); err == nil {
		t.Error("max regions 0 should fail")
	}
	if err := c.SetMaxRegions(3); err != nil {
		t.Fatal(err)
	}
	if c.maxRegions != 3 {
		t.Errorf("MaxRegions = %d", c.maxRegions)
	}
}

func TestMultiRegionResidency(t *testing.T) {
	c, b := newTestCache(t, 20)
	if err := c.SetMaxRegions(2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRegion(1, []uint32{10}, [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRegion(2, []uint32{20}, [][]float64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if !resident(c, 1) || !resident(c, 2) {
		t.Fatal("both regions should be resident")
	}
	if c.RegionLen() != 2 || b.Used() != 2*TupleBytes(2) {
		t.Fatalf("regionLen=%d used=%d", c.RegionLen(), b.Used())
	}
	// Third region evicts the least recently used (cell 1).
	if err := c.SetRegion(3, []uint32{30}, [][]float64{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if resident(c, 1) {
		t.Error("cell 1 should have been evicted")
	}
	if !resident(c, 2) || !resident(c, 3) {
		t.Error("cells 2 and 3 should be resident")
	}
	if b.Used() != 2*TupleBytes(2) {
		t.Errorf("used=%d after eviction", b.Used())
	}
}

func TestMultiRegionLRUTouch(t *testing.T) {
	c, _ := newTestCache(t, 20)
	c.SetMaxRegions(2)
	c.SetRegion(1, []uint32{10}, [][]float64{{1, 1}})
	c.SetRegion(2, []uint32{20}, [][]float64{{2, 2}})
	// Touch cell 1 so cell 2 becomes the eviction victim.
	if !c.HasRegion(1) {
		t.Fatal("cell 1 resident")
	}
	c.SetRegion(3, []uint32{30}, [][]float64{{3, 3}})
	if !resident(c, 1) || resident(c, 2) {
		t.Errorf("LRU touch ignored: resident = %v", c.ResidentRegions())
	}
	// Reading residency must NOT touch.
	c2, _ := newTestCache(t, 20)
	c2.SetMaxRegions(2)
	c2.SetRegion(1, []uint32{10}, [][]float64{{1, 1}})
	c2.SetRegion(2, []uint32{20}, [][]float64{{2, 2}})
	c2.ResidentRegions()
	c2.SetRegion(3, []uint32{30}, [][]float64{{3, 3}})
	if resident(c2, 1) {
		t.Error("ResidentRegions must not refresh recency")
	}
}

func TestSetMaxRegionsShrinksResident(t *testing.T) {
	c, b := newTestCache(t, 20)
	c.SetMaxRegions(3)
	c.SetRegion(1, []uint32{10}, [][]float64{{1, 1}})
	c.SetRegion(2, []uint32{20}, [][]float64{{2, 2}})
	c.SetRegion(3, []uint32{30}, [][]float64{{3, 3}})
	if err := c.SetMaxRegions(1); err != nil {
		t.Fatal(err)
	}
	if got := c.ResidentRegions(); len(got) != 1 || got[0] != 3 {
		t.Errorf("resident after shrink = %v", got)
	}
	if b.Used() != TupleBytes(2) {
		t.Errorf("used=%d after shrink", b.Used())
	}
}

func TestMultiRegionRemoveAndReinstall(t *testing.T) {
	c, _ := newTestCache(t, 20)
	c.SetMaxRegions(2)
	c.SetRegion(1, []uint32{10, 11}, [][]float64{{1, 1}, {2, 2}})
	c.Remove(10)
	if c.RegionLen() != 1 {
		t.Fatalf("RegionLen = %d", c.RegionLen())
	}
	// Reinstalling the same cell replaces its content and still refuses
	// labeled rows.
	if err := c.SetRegion(1, []uint32{10, 11}, [][]float64{{1, 1}, {2, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(10); ok {
		t.Error("labeled row resurrected")
	}
	if _, ok := c.Get(11); !ok {
		t.Error("row 11 missing after reinstall")
	}
}

func TestQuickMultiRegionBudgetInvariant(t *testing.T) {
	f := func(ops []uint16, maxRegions uint8) bool {
		b, _ := NewBudget(1 << 30)
		c, _ := NewCache(b, 2)
		if err := c.SetMaxRegions(int(maxRegions%4) + 1); err != nil {
			return false
		}
		for _, op := range ops {
			id := uint32(op % 64)
			cell := int(op % 8)
			switch op % 5 {
			case 0:
				c.AddSample(id, []float64{1, 2})
			case 1:
				c.SetRegion(cell, []uint32{id, id + 1}, [][]float64{{1, 1}, {2, 2}})
			case 2:
				c.Remove(id)
			case 3:
				c.HasRegion(cell)
			case 4:
				c.DropRegion()
			}
			if b.Used() != int64(c.Len())*TupleBytes(2) {
				return false
			}
			if len(c.ResidentRegions()) > c.maxRegions {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
