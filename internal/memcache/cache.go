package memcache

import (
	"cmp"
	"fmt"
	"slices"
)

// NoRegion is the RegionCell value when no uncertain region is resident.
const NoRegion = -1

// rowSet is a set of tuples held as an ascending id slice beside a row
// slice: lookup is a binary search and ordered iteration needs no sort.
type rowSet struct {
	ids  []uint32
	rows [][]float64
}

func (s *rowSet) get(id uint32) ([]float64, bool) {
	if i, ok := slices.BinarySearch(s.ids, id); ok {
		return s.rows[i], true
	}
	return nil, false
}

func (s *rowSet) remove(id uint32) bool {
	i, ok := slices.BinarySearch(s.ids, id)
	if ok {
		s.ids = slices.Delete(s.ids, i, i+1)
		s.rows = slices.Delete(s.rows, i, i+1)
	}
	return ok
}

// region is one resident uncertain region: a grid cell and its rows.
type region struct {
	cell int
	rowSet
}

// Cache is UEI's in-memory unlabeled set U: a uniform base sample that
// stays resident for the whole exploration, plus a bounded set of loaded
// uncertain regions. §3.2 fixes the default at one resident region ("by
// default UEI kept only one uncertain data region g*_i in the memory at
// any given time"); SetMaxRegions raises the bound for deployments with
// spare budget, evicting the least recently used region first. Labeled
// tuples are evicted (U <- U - {x}), and every byte held is accounted
// against the shared Budget.
//
// Cache is not safe for concurrent use; the IDE engine owns it from a
// single goroutine and the prefetcher hands regions over via channels.
type Cache struct {
	budget *Budget
	dims   int

	sample rowSet
	// regions lists the resident regions, least recently used first.
	regions []region
	// maxRegions bounds len(regions); at least 1.
	maxRegions int
	// labeled records evicted ids so re-loaded regions do not resurrect
	// already-labeled tuples.
	labeled map[uint32]bool
}

// NewCache creates an empty cache accounting against budget, holding at
// most one region (the paper's default).
func NewCache(budget *Budget, dims int) (*Cache, error) {
	if budget == nil {
		return nil, fmt.Errorf("memcache: nil budget")
	}
	if dims <= 0 {
		return nil, fmt.Errorf("memcache: dims %d must be positive", dims)
	}
	return &Cache{budget: budget, dims: dims, maxRegions: 1, labeled: make(map[uint32]bool)}, nil
}

// SetMaxRegions raises (or lowers) the resident-region bound, evicting
// least-recently-used regions if the new bound is already exceeded.
func (c *Cache) SetMaxRegions(n int) error {
	if n < 1 {
		return fmt.Errorf("memcache: max regions %d must be at least 1", n)
	}
	c.maxRegions = n
	for len(c.regions) > c.maxRegions {
		c.dropRegionAt(0)
	}
	return nil
}

// AddSample inserts one base-sample tuple, reserving budget for it.
// Already-present and already-labeled ids are no-ops.
func (c *Cache) AddSample(id uint32, row []float64) error {
	return c.AddSamples([]uint32{id}, [][]float64{row})
}

// AddSamples installs a batch of base-sample tuples under one budget
// reservation: ids must ascend strictly, and rows[i] is the row of ids[i].
// Already-present and already-labeled ids are skipped. When the rest does
// not fit the budget nothing is installed and the error wraps
// ErrBudgetExceeded. A row past every resident sample id — each row of the
// sample a session opens with — is an append.
func (c *Cache) AddSamples(ids []uint32, rows [][]float64) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("memcache: %d ids for %d rows", len(ids), len(rows))
	}
	keep := make([]int, 0, len(ids))
	for i, id := range ids {
		if len(rows[i]) != c.dims {
			return fmt.Errorf("memcache: row has %d dims, cache expects %d", len(rows[i]), c.dims)
		}
		if i > 0 && id <= ids[i-1] {
			return fmt.Errorf("memcache: sample ids must ascend strictly, %d follows %d", id, ids[i-1])
		}
		if _, held := c.sample.get(id); !held && !c.labeled[id] {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil
	}
	if err := c.budget.Reserve(int64(len(keep)) * TupleBytes(c.dims)); err != nil {
		return err
	}
	s := &c.sample
	for _, i := range keep {
		at, _ := slices.BinarySearch(s.ids, ids[i])
		s.ids = slices.Insert(s.ids, at, ids[i])
		s.rows = slices.Insert(s.rows, at, rows[i])
	}
	return nil
}

// RegionCell returns the most recently installed region's grid cell, or
// NoRegion.
func (c *Cache) RegionCell() int {
	if len(c.regions) == 0 {
		return NoRegion
	}
	return c.regions[len(c.regions)-1].cell
}

// regionIndex returns the position of the cell's region in c.regions, or -1.
func (c *Cache) regionIndex(cell int) int {
	return slices.IndexFunc(c.regions, func(r region) bool { return r.cell == cell })
}

// HasRegion reports whether the cell's region is resident, marking it most
// recently used when it is.
func (c *Cache) HasRegion(cell int) bool {
	i := c.regionIndex(cell)
	if i < 0 {
		return false
	}
	r := c.regions[i]
	c.regions = append(slices.Delete(c.regions, i, i+1), r)
	return true
}

// ResidentRegions returns the resident cells, least recently used first.
func (c *Cache) ResidentRegions() []int {
	cells := make([]int, len(c.regions))
	for i := range c.regions {
		cells[i] = c.regions[i].cell
	}
	return cells
}

// SetRegion installs a loaded region (Algorithm 2 lines 15/19-20),
// evicting least-recently-used regions beyond the bound. Rows already
// resident (in the sample or another region) or already labeled are
// skipped rather than double-counted. Ids are taken as a cell load
// delivers them, ascending; any other order is sorted first (stably, so
// the first of a repeated id wins). On budget exhaustion the region is
// installed partially (the lowest ids that fit) and ErrBudgetExceeded is
// returned — the caller decides whether a partial region is acceptable.
func (c *Cache) SetRegion(cell int, ids []uint32, rows [][]float64) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("memcache: %d ids for %d rows", len(ids), len(rows))
	}
	if cell < 0 {
		return fmt.Errorf("memcache: invalid region cell %d", cell)
	}
	if i := c.regionIndex(cell); i >= 0 {
		c.dropRegionAt(i) // reinstall fresh
	}
	for len(c.regions) >= c.maxRegions {
		c.dropRegionAt(0)
	}
	if !slices.IsSorted(ids) {
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
		sortedIDs, sortedRows := make([]uint32, len(ids)), make([][]float64, len(ids))
		for i, j := range order {
			sortedIDs[i], sortedRows[i] = ids[j], rows[j]
		}
		ids, rows = sortedIDs, sortedRows
	}
	c.regions = append(c.regions, region{cell: cell})
	r := &c.regions[len(c.regions)-1]
	r.ids, r.rows = make([]uint32, 0, len(ids)), make([][]float64, 0, len(ids))
	for i, id := range ids {
		if len(rows[i]) != c.dims {
			return fmt.Errorf("memcache: region row %d has %d dims, cache expects %d", id, len(rows[i]), c.dims)
		}
		if c.labeled[id] {
			continue
		}
		// The new region is last in c.regions and ascending, so Get also
		// finds an id this call has already installed.
		if _, ok := c.Get(id); ok {
			continue
		}
		if err := c.budget.Reserve(TupleBytes(c.dims)); err != nil {
			return fmt.Errorf("memcache: region %d truncated after %d rows: %w", cell, len(r.ids), err)
		}
		r.ids, r.rows = append(r.ids, id), append(r.rows, rows[i])
	}
	return nil
}

// DropRegion evicts every resident region, releasing its budget
// (Algorithm 2 line 15, "drop any previously loaded data regions from U").
func (c *Cache) DropRegion() {
	for len(c.regions) > 0 {
		c.dropRegionAt(0)
	}
}

// dropRegionAt evicts the region at position i of c.regions.
func (c *Cache) dropRegionAt(i int) {
	c.budget.Release(int64(len(c.regions[i].ids)) * TupleBytes(c.dims))
	c.regions = slices.Delete(c.regions, i, i+1)
}

// Remove evicts a tuple after it was labeled (U <- U - {x}). It is
// idempotent.
func (c *Cache) Remove(id uint32) {
	if c.labeled[id] {
		return
	}
	c.labeled[id] = true
	if c.sample.remove(id) {
		c.budget.Release(TupleBytes(c.dims))
	}
	for i := range c.regions {
		if c.regions[i].remove(id) {
			c.budget.Release(TupleBytes(c.dims))
		}
	}
}

// Get returns the cached row for id, if resident.
func (c *Cache) Get(id uint32) ([]float64, bool) {
	if row, ok := c.sample.get(id); ok {
		return row, true
	}
	for i := range c.regions {
		if row, ok := c.regions[i].get(id); ok {
			return row, true
		}
	}
	return nil, false
}

// Len returns the number of resident tuples.
func (c *Cache) Len() int { return c.SampleLen() + c.RegionLen() }

// SampleLen returns the number of resident base-sample tuples.
func (c *Cache) SampleLen() int { return len(c.sample.ids) }

// RegionLen returns the number of resident region tuples across all
// regions.
func (c *Cache) RegionLen() int {
	n := 0
	for i := range c.regions {
		n += len(c.regions[i].ids)
	}
	return n
}

// EachSorted visits every resident tuple in ascending id order until fn
// returns false, each id once (the sample's row wins when AddSample put an
// id beside a region's copy). The IDE engine uses it so argmax
// tie-breaking — and hence whole explorations — are deterministic for a
// fixed seed. It merges the 1 + len(regions) ascending lists; fn must not
// modify the cache.
func (c *Cache) EachSorted(fn func(id uint32, row []float64) bool) {
	sets := make([]*rowSet, 1, 1+len(c.regions))
	sets[0] = &c.sample
	for i := range c.regions {
		sets = append(sets, &c.regions[i].rowSet)
	}
	pos := make([]int, len(sets))
	for {
		best := -1
		for k, s := range sets {
			if pos[k] < len(s.ids) && (best < 0 || s.ids[pos[k]] < sets[best].ids[pos[best]]) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		id := sets[best].ids[pos[best]]
		if !fn(id, sets[best].rows[pos[best]]) {
			return
		}
		// Step every list past id: the first list holding it was visited.
		for k, s := range sets {
			if pos[k] < len(s.ids) && s.ids[pos[k]] == id {
				pos[k]++
			}
		}
	}
}
