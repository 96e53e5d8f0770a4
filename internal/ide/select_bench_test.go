package ide

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/learn"
)

// memPool is an in-memory resident pool: a fixed sample plus one region
// that swap replaces with rows under other ids, the way a UEI region swap
// changes part of U between selections.
type memPool struct {
	Provider // nil: selection only calls the two methods below
	ids      []uint32
	rows     map[uint32][]float64
	region   []uint32
	nextID   uint32
	rng      *rand.Rand
}

func newMemPool(sample, region, dims int) *memPool {
	p := &memPool{rows: map[uint32][]float64{}, rng: rand.New(rand.NewSource(9))}
	for i := 0; i < sample; i++ {
		p.add(uint32(i*64), dims)
	}
	p.nextID = 1
	p.swap(region, dims)
	return p
}

func (p *memPool) add(id uint32, dims int) {
	row := make([]float64, dims)
	for d := range row {
		row[d] = p.rng.Float64()
	}
	p.rows[id] = row
	p.ids = append(p.ids, id)
}

// swap drops the region's rows and loads n new ones under fresh ids that
// interleave with the sample's.
func (p *memPool) swap(n, dims int) {
	for _, id := range p.region {
		delete(p.rows, id)
	}
	p.ids = slices.DeleteFunc(p.ids, func(id uint32) bool { return id%64 != 0 })
	p.region = p.region[:0]
	for i := 0; i < n; i++ {
		id := p.nextID
		p.nextID += 7
		if id%64 == 0 {
			id++
		}
		p.region = append(p.region, id)
		p.add(id, dims)
	}
	slices.Sort(p.ids)
	p.ids = slices.Compact(p.ids)
}

func (p *memPool) Candidates(_ context.Context, fn func(id uint32, row []float64) bool) error {
	for _, id := range p.ids {
		if !fn(id, p.rows[id]) {
			break
		}
	}
	return nil
}

func (p *memPool) CandidateCount() int { return len(p.ids) }

// BenchmarkSelectCandidate measures candidate selection over a resident pool
// of 3 000 rows while the labeled set grows from 3 to 44 rows one label at
// a time and the region (300 rows) is swapped on two steps of three:
// mode=scratch streams every row through Strategy.Score, mode=table resumes
// each row's k-NN scan through the session's neighbour table. One op is one
// selection. A developer's yardstick, not a gate: the repository's
// benchmark is benchmark/run.sh.
func BenchmarkSelectCandidate(b *testing.B) {
	const dims, sample, region = 5, 2700, 300
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []int
	var models []*learn.DWKNN
	scales := []float64{1, 1, 1, 1, 1}
	for len(X) < 44 {
		row := make([]float64, dims)
		for d := range row {
			row[d] = rng.Float64()
		}
		X, y = append(X, row), append(y, len(X)%2)
		if len(X) >= 3 {
			m := learn.NewDWKNN(7, scales)
			if err := m.Fit(X, y); err != nil {
				b.Fatal(err)
			}
			models = append(models, m)
		}
	}
	for _, mode := range []string{"scratch", "table"} {
		b.Run("mode="+mode, func(b *testing.B) {
			pool := newMemPool(sample, region, dims)
			var p Provider = pool
			if mode == "scratch" {
				p = streamOnly{pool}
			}
			sess, err := NewSession(Config{
				MaxLabels:        1,
				EstimatorFactory: func() learn.Classifier { return nil },
				Strategy:         al.LeastConfidence{},
			}, p, &ExternalLabeler{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step := i % len(models)
				if step == 0 {
					sess.Release() // a new session: L is back to 3 rows
				}
				if step%3 != 0 {
					b.StopTimer()
					pool.swap(region, dims)
					b.StartTimer()
				}
				sess.model = models[step]
				if _, _, _, n, err := sess.selectCandidate(ctx); err != nil || n != sample+region {
					b.Fatalf("selected over %d rows: %v", n, err)
				}
			}
		})
	}
}
