package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/server"
)

// Fixed parts of every workload. The dataset seed is a constant: the store
// is the benchmark's fixture, the -seed argument generates the requests.
const (
	datasetSeed  = 20210323
	chunkBytes   = 64 << 10
	sampleSize   = 2000
	appendRows   = 256
	appendEvery  = 10 // steps between appends on live-append
	flushEvery   = 5  // appends between explicit flushes (4 flushes a round: below the compaction trigger)
	sloMillis    = 500.0
	regionTol    = 0.2
	regionTrials = 12
)

// workload describes one store + server configuration and the shape of the
// session list replayed against it.
type workload struct {
	Name string
	Why  string
	// Rows is the dataset size N.
	Rows int
	// Shards > 1 builds the sharded layout.
	Shards int
	// Live builds the WAL-backed layout, follows epochs, and interleaves appends.
	Live bool
	// BlockCacheBytes > 0 installs the shared decoded-chunk cache.
	BlockCacheBytes int64
	// SessionBudgetBytes is the share one session is granted; the server's
	// total budget is this plus the block cache.
	SessionBudgetBytes int64
	Sessions           int
	Labels             int
	Selectivity        float64
	// MinRounds is the fewest timed rounds a run may keep.
	MinRounds int
	// RoundSeconds is what one round, with its share of the run's fixed
	// costs, takes on the 2-vCPU box the sizes were chosen on; -seconds
	// divided by it is the round count.
	RoundSeconds float64
}

func workloads(quick bool) []workload {
	ws := []workload{
		{
			Name: "explore-cold",
			Why:  "paper configuration: flat store, block cache off, every region swap reads, CRC-checks, decodes and merges chunks",
			Rows: 50_000, SessionBudgetBytes: 512 << 10,
			Sessions: 5, Labels: 44, Selectivity: 0.004, MinRounds: 8, RoundSeconds: 2.1,
		},
		{
			Name: "explore-hot",
			Why:  "same store and session list with a block cache larger than the store: chunk read+decode vanish, merge/score/select remain",
			Rows: 50_000, SessionBudgetBytes: 512 << 10, BlockCacheBytes: 64 << 20,
			Sessions: 5, Labels: 44, Selectivity: 0.004, MinRounds: 8, RoundSeconds: 1.8,
		},
		{
			Name: "retrieve-heavy",
			Why:  "large sharded store (S=4): the terminal step's result retrieval dominates and every step scatter-gathers over shards",
			Rows: 150_000, Shards: 4, SessionBudgetBytes: 8 << 20,
			Sessions: 5, Labels: 44, Selectivity: 0.008, MinRounds: 5, RoundSeconds: 3.8,
		},
		{
			Name: "live-append",
			Why:  "WAL-backed store followed live: appends, fsyncs, flushes and epoch advances beside the explore-cold session list",
			Rows: 50_000, Live: true, SessionBudgetBytes: 512 << 10,
			Sessions: 5, Labels: 44, Selectivity: 0.004, MinRounds: 6, RoundSeconds: 3.3,
		},
	}
	if quick {
		for i := range ws {
			ws[i].Rows = 3000
			ws[i].Sessions = 2
			ws[i].Labels = 12
			ws[i].Selectivity = 0.02
			ws[i].MinRounds = 2
		}
	}
	return ws
}

func findWorkload(name string, quick bool) (workload, error) {
	for _, w := range workloads(quick) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sessionPlan is one seeded session of the list: the explicit oracle region,
// the session seed and the label budget. The create-request body is encoded
// once so every replay sends the same bytes.
type sessionPlan struct {
	Region oracle.Region
	Seed   int64
	Labels int
	body   []byte
}

func (p sessionPlan) spec() server.SessionSpec {
	return server.SessionSpec{
		MaxLabels:  p.Labels,
		Seed:       p.Seed,
		SampleSize: sampleSize,
		Oracle:     &server.OracleSpec{Center: p.Region.Center, Widths: p.Region.Widths},
	}
}

// appendBatch is one seeded ingest request.
type appendBatch struct {
	Rows [][]float64
	body []byte
}

// plan is everything a run replays: generated from the seed alone.
type plan struct {
	Sessions []sessionPlan
	// Appends are consumed in order, one after every appendEvery-th step;
	// the list is long enough for any round (nil on static workloads).
	Appends []appendBatch
}

// makePlan derives the session list (and append batches) from the seed.
//
// The list is mostly fixture, like the dataset: one (interest region,
// session seed) pair per session, drawn once from datasetSeed, the regions
// found on the benchmark's own copy of the data so region search is never
// inside a timed request. The run's seed decides the order the sessions run
// in, replaces the first session's seed with a fresh one (its uniform
// sample, its bootstrap draws and therefore its whole label sequence differ
// from every other seed's), and draws the append rows. Drawing everything
// per seed made two seeds two different workloads: a region's cell density
// and a session's trajectory move the step median by +-10% and the tail by
// more, which is the size of the regressions the bounds are meant to catch.
// explore-cold, explore-hot and live-append share one list for a given seed.
func makePlan(w workload, ds *dataset.Dataset, seed int64) (plan, error) {
	fixture := rand.New(rand.NewSource(datasetSeed))
	pool := make([]sessionPlan, w.Sessions)
	for i := range pool {
		region, err := oracle.FindRegion(ds, w.Selectivity, regionTol, fixture.Int63(), regionTrials)
		if err != nil {
			return plan{}, fmt.Errorf("region %d: %w", i, err)
		}
		pool[i] = sessionPlan{Region: region, Seed: fixture.Int63(), Labels: w.Labels}
	}
	rng := rand.New(rand.NewSource(seed))
	var p plan
	for n, i := range rng.Perm(w.Sessions) {
		sp := pool[i]
		if n == 0 {
			sp.Seed = rng.Int63()
		}
		var err error
		if sp.body, err = json.Marshal(sp.spec()); err != nil {
			return plan{}, err
		}
		p.Sessions = append(p.Sessions, sp)
	}
	if !w.Live {
		return p, nil
	}
	var err error
	p.Appends, err = makeAppends(ds, rng, w.Sessions*(w.Labels+2)/appendEvery+1)
	return p, err
}

// makeAppends draws n ingest batches of appendRows in-bounds rows each.
func makeAppends(ds *dataset.Dataset, rng *rand.Rand, n int) ([]appendBatch, error) {
	bounds, err := ds.Bounds()
	if err != nil {
		return nil, err
	}
	widths := bounds.Widths()
	var out []appendBatch
	for b := 0; b < n; b++ {
		var batch appendBatch
		for r := 0; r < appendRows; r++ {
			// A jittered copy of an existing tuple: in bounds, and as
			// clustered as the data the store already holds.
			row := ds.CopyRow(dataset.RowID(rng.Intn(ds.Len())))
			for d := range row {
				row[d] += (rng.Float64() - 0.5) * 0.02 * widths[d]
			}
			batch.Rows = append(batch.Rows, bounds.Clamp(row))
		}
		if batch.body, err = json.Marshal(server.AppendRequest{Rows: batch.Rows}); err != nil {
			return nil, err
		}
		out = append(out, batch)
	}
	return out, nil
}
