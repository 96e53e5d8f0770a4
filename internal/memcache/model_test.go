package memcache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelCache is the reference the real Cache is checked against: the same
// contract written the obvious way, with Go maps and a sort per question.
type modelCache struct {
	capacity   int // in tuples
	maxRegions int
	sample     map[uint32][]float64
	regions    map[int]map[uint32][]float64
	lru        []int // resident cells, least recently used first
	labeled    map[uint32]bool
}

func newModelCache(capacity int) *modelCache {
	return &modelCache{
		capacity:   capacity,
		maxRegions: 1,
		sample:     map[uint32][]float64{},
		regions:    map[int]map[uint32][]float64{},
		labeled:    map[uint32]bool{},
	}
}

func (m *modelCache) regionLen() int { return len(m.regionIDs()) }

func (m *modelCache) len() int { return len(m.sample) + m.regionLen() }

// regionIDs lists the ids held by regions, ascending.
func (m *modelCache) regionIDs() []uint32 {
	var ids []uint32
	for _, r := range m.regions {
		for id := range r {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func (m *modelCache) get(id uint32) ([]float64, bool) {
	if row, ok := m.sample[id]; ok {
		return row, true
	}
	for _, r := range m.regions {
		if row, ok := r[id]; ok {
			return row, true
		}
	}
	return nil, false
}

func (m *modelCache) addSample(id uint32, row []float64) bool {
	if _, held := m.sample[id]; held || m.labeled[id] {
		return true
	}
	if m.len() >= m.capacity {
		return false
	}
	m.sample[id] = row
	return true
}

func (m *modelCache) dropRegion(cell int) {
	delete(m.regions, cell)
	m.lru = slices.DeleteFunc(m.lru, func(c int) bool { return c == cell })
}

func (m *modelCache) setMaxRegions(n int) {
	m.maxRegions = n
	for len(m.lru) > n {
		m.dropRegion(m.lru[0])
	}
}

// setRegion reports whether every row fit the budget. Rows are offered in
// ascending id order, the first of a repeated id first.
func (m *modelCache) setRegion(cell int, ids []uint32, rows [][]float64) bool {
	m.dropRegion(cell)
	for len(m.lru) >= m.maxRegions {
		m.dropRegion(m.lru[0])
	}
	region := map[uint32][]float64{}
	m.regions[cell] = region
	m.lru = append(m.lru, cell)
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return int(ids[a]) - int(ids[b]) })
	for _, i := range order {
		if _, held := m.get(ids[i]); held || m.labeled[ids[i]] {
			continue
		}
		if m.len() >= m.capacity {
			return false
		}
		region[ids[i]] = rows[i]
	}
	return true
}

func (m *modelCache) remove(id uint32) {
	m.labeled[id] = true
	delete(m.sample, id)
	for _, r := range m.regions {
		delete(r, id)
	}
}

// sorted returns what EachSorted must visit: every resident id once,
// ascending, with the sample's row where the sample holds the id.
func (m *modelCache) sorted() (ids []uint32, rows [][]float64) {
	for id := range m.sample {
		ids = append(ids, id)
	}
	for _, r := range m.regions {
		for id := range r {
			if _, dup := m.sample[id]; !dup {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		row, _ := m.get(id)
		rows = append(rows, row)
	}
	return ids, rows
}

// TestCacheAgainstModel drives the cache and the model with one seeded
// operation sequence and compares everything observable after every step.
func TestCacheAgainstModel(t *testing.T) {
	const dims, idSpace, cells = 2, 60, 5
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 8 + rng.Intn(60)
		budget, err := NewBudget(int64(capacity) * TupleBytes(dims))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCache(budget, dims)
		if err != nil {
			t.Fatal(err)
		}
		m := newModelCache(capacity)
		// Rows are told apart by content: (id, serial number of the op).
		newRow := func(id uint32, op int) []float64 { return []float64{float64(id), float64(op)} }

		for op := 0; op < 300; op++ {
			var what string
			switch k := rng.Intn(12); {
			case k < 3:
				id := uint32(rng.Intn(idSpace))
				if held := m.regionIDs(); rng.Intn(3) == 0 && len(held) > 0 {
					id = held[rng.Intn(len(held))] // an id a region already holds
				}
				what = fmt.Sprintf("AddSample(%d)", id)
				row := newRow(id, op)
				err := c.AddSample(id, row)
				if fit := m.addSample(id, row); fit != (err == nil) || (err != nil && !errors.Is(err, ErrBudgetExceeded)) {
					t.Fatalf("seed %d op %d %s: err = %v, model fit = %v", seed, op, what, err, fit)
				}
			case k < 7:
				cell := rng.Intn(cells)
				if rng.Intn(4) == 0 && len(m.lru) > 0 {
					cell = m.lru[rng.Intn(len(m.lru))] // re-install a resident cell
				}
				ids := make([]uint32, rng.Intn(25))
				rows := make([][]float64, len(ids))
				for i := range ids {
					ids[i] = uint32(rng.Intn(idSpace))
				}
				if rng.Intn(3) > 0 {
					slices.Sort(ids) // as a cell load delivers them; repeats stay
				}
				for i, id := range ids {
					rows[i] = newRow(id, op*100+i)
				}
				what = fmt.Sprintf("SetRegion(%d, %v)", cell, ids)
				err := c.SetRegion(cell, ids, rows)
				if fit := m.setRegion(cell, ids, rows); fit != (err == nil) || (err != nil && !errors.Is(err, ErrBudgetExceeded)) {
					t.Fatalf("seed %d op %d %s: err = %v, model fit = %v", seed, op, what, err, fit)
				}
			case k < 9:
				id := uint32(rng.Intn(idSpace))
				what = fmt.Sprintf("Remove(%d)", id)
				c.Remove(id)
				m.remove(id)
			case k == 9:
				what = "DropRegion"
				c.DropRegion()
				for len(m.lru) > 0 {
					m.dropRegion(m.lru[0])
				}
			case k == 10:
				n := 1 + rng.Intn(2)
				what = fmt.Sprintf("SetMaxRegions(%d)", n)
				if err := c.SetMaxRegions(n); err != nil {
					t.Fatal(err)
				}
				m.setMaxRegions(n)
			default:
				if len(m.lru) == 0 {
					continue
				}
				cell := m.lru[rng.Intn(len(m.lru))]
				what = fmt.Sprintf("HasRegion(%d)", cell)
				if !c.HasRegion(cell) {
					t.Fatalf("seed %d op %d %s: resident cell reported absent", seed, op, what)
				}
				m.lru = append(slices.DeleteFunc(m.lru, func(c int) bool { return c == cell }), cell)
			}

			at := fmt.Sprintf("seed %d op %d after %s", seed, op, what)
			if c.Len() != m.len() || c.SampleLen() != len(m.sample) || c.RegionLen() != m.regionLen() {
				t.Fatalf("%s: Len/SampleLen/RegionLen = %d/%d/%d, model %d/%d/%d", at,
					c.Len(), c.SampleLen(), c.RegionLen(), m.len(), len(m.sample), m.regionLen())
			}
			if want := int64(m.len()) * TupleBytes(dims); budget.Used() != want {
				t.Fatalf("%s: budget holds %d bytes, model %d", at, budget.Used(), want)
			}
			if !slices.Equal(c.ResidentRegions(), m.lru) {
				t.Fatalf("%s: resident regions %v, model %v", at, c.ResidentRegions(), m.lru)
			}
			wantIDs, wantRows := m.sorted()
			i := 0
			c.EachSorted(func(id uint32, row []float64) bool {
				if i >= len(wantIDs) || id != wantIDs[i] || !slices.Equal(row, wantRows[i]) {
					t.Fatalf("%s: EachSorted visit %d is %d %v, model %v", at, i, id, row, wantIDs)
				}
				i++
				return true
			})
			if i != len(wantIDs) {
				t.Fatalf("%s: EachSorted visited %d tuples, model has %d", at, i, len(wantIDs))
			}
			for id := uint32(0); id < idSpace; id++ {
				got, ok := c.Get(id)
				want, held := m.get(id)
				if ok != held || !slices.Equal(got, want) {
					t.Fatalf("%s: Get(%d) = %v %v, model %v %v", at, id, got, ok, want, held)
				}
			}
		}
	}
}
