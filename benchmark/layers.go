package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// Rung D of the ladder: isolated calls into each layer, on inputs the
// engine-level replay captured (the cells it loaded, the labeled sets it
// fitted) and on fixtures cut from the workload's dataset. A layer that is
// on the workload's request path is measured on the workload's own store; a
// layer that is not (shard on a flat store, stream on a static one) is
// measured on a small fixture, so every layer has a number on every
// workload and a change to it is visible whichever workload was traced.
const (
	flatFixtureRows  = 120_000 // chunkstore/grid/blockcache fixture cap
	smallFixtureRows = 40_000  // shard and stream fixtures on workloads that do not use them
	maxCells         = 16      // captured cells replayed per layer
)

// layerInputs is what rung C hands to rung D.
type layerInputs struct {
	cells   []int
	labeled []ide.Snapshot
}

// best runs fn reps times and returns the fastest, in nanoseconds.
func best(reps int, fn func() error) (int64, error) {
	min := int64(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0).Nanoseconds(); d < min {
			min = d
		}
	}
	return min, nil
}

// head returns the first n rows of ds as a dataset (ds itself when it has
// no more than n).
func head(ds *dataset.Dataset, n int) (*dataset.Dataset, error) {
	if ds.Len() <= n {
		return ds, nil
	}
	out := dataset.New(ds.Schema(), n)
	for i := 0; i < n; i++ {
		if _, err := out.Append(ds.Row(dataset.RowID(i))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layerMetrics runs every isolated measurement and sets the rung D metrics.
func (r *runner) layerMetrics(in layerInputs) error {
	if len(in.cells) == 0 || len(in.labeled) == 0 {
		return fmt.Errorf("engine replay captured no cells or labeled sets")
	}
	if len(in.cells) > maxCells {
		in.cells = in.cells[:maxCells]
	}
	scales, err := r.ds.Bounds()
	if err != nil {
		return err
	}
	model := learn.NewDWKNN(7, scales.Widths())
	last := in.labeled[len(in.labeled)-1]
	if err := model.Fit(last.X, last.Y); err != nil {
		return err
	}
	for _, step := range []func(layerInputs, *learn.DWKNN) error{
		r.storageLayers, r.scoringLayers, r.coreLayer, r.shardLayer, r.streamLayer,
	} {
		if err := step(in, model); err != nil {
			return err
		}
	}
	return nil
}

// storageLayers measures chunkstore, grid, blockcache and memcache on a flat
// store of (up to flatFixtureRows of) the workload's dataset.
func (r *runner) storageLayers(in layerInputs, _ *learn.DWKNN) error {
	ctx := r.ctx
	ds, err := head(r.ds, flatFixtureRows)
	if err != nil {
		return err
	}
	t0 := time.Now()
	st, err := chunkstore.Build(r.sc.dir("flat"), ds, chunkstore.BuildOptions{TargetChunkBytes: chunkBytes})
	if err != nil {
		return err
	}
	r.res.set("chunkstore.build_s", time.Since(t0).Seconds(), 0)
	st.SetWorkers(runtime.GOMAXPROCS(0))

	g, err := grid.New(st.Bounds(), 5)
	if err != nil {
		return err
	}
	var mapping *grid.Mapping
	ns, err := best(3, func() (err error) { mapping, err = grid.BuildMapping(g, st); return })
	if err != nil {
		return err
	}
	r.res.set("grid.build_mapping_ms", float64(ns)/1e6, 0)

	// Cells: merge each captured cell; chunks: read each distinct chunk.
	var chunkCount int
	var mergeNs int64
	var chunks []chunkstore.ChunkMeta
	seen := map[string]bool{}
	var regionIDs []uint32
	var regionRows [][]float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, cell := range in.cells {
		metas, err := mapping.Chunks(grid.CellID(cell))
		if err != nil {
			return err
		}
		box, err := g.CellBox(grid.CellID(cell))
		if err != nil {
			return err
		}
		chunkCount += len(metas)
		for _, m := range metas {
			if !seen[m.File] {
				seen[m.File] = true
				chunks = append(chunks, m)
			}
		}
		var rows []chunkstore.MergedRow
		ns, err := best(1, func() (err error) { rows, _, err = st.MergeChunks(ctx, box, metas); return })
		if err != nil {
			return err
		}
		mergeNs += ns
		if len(rows) > len(regionIDs) {
			regionIDs, regionRows = regionIDs[:0], regionRows[:0]
			for _, row := range rows {
				regionIDs = append(regionIDs, row.ID)
				regionRows = append(regionRows, row.Vals)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	cells := float64(len(in.cells))
	r.res.set("grid.chunks_per_cell", float64(chunkCount)/cells, len(in.cells))
	r.res.set("chunkstore.merge_cell_ms", float64(mergeNs)/1e6/cells, len(in.cells))
	r.res.set("chunkstore.alloc_kb_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/cells, len(in.cells))

	var readNs, decoded int64
	for _, m := range chunks {
		var entries []chunkstore.Entry
		ns, err := best(3, func() (err error) { entries, err = st.ReadChunk(ctx, m); return })
		if err != nil {
			return err
		}
		readNs += ns
		decoded += chunkstore.DecodedEntriesBytes(entries)
	}
	r.res.set("chunkstore.read_chunk_us", float64(readNs)/1e3/float64(len(chunks)), len(chunks))
	r.res.set("chunkstore.decode_mb_s", float64(decoded)/(1<<20)/(float64(readNs)/1e9), len(chunks))

	var ids []uint32
	ns, err = best(5, func() (err error) { ids, err = memcache.SampleIDs(st.RowCount(), sampleSize, 1); return })
	if err != nil {
		return err
	}
	r.res.set("memcache.sample_ids_us", float64(ns)/1e3, 0)
	var sample []chunkstore.MergedRow
	ns, err = best(2, func() (err error) { sample, err = st.FetchRows(ctx, ids); return })
	if err != nil {
		return err
	}
	r.res.set("chunkstore.fetch_rows_us_per_row", float64(ns)/1e3/float64(len(ids)), len(ids))

	ns, err = best(1, func() error {
		for i := 0; i < ds.Len(); i++ {
			if _, err := g.CellOf(ds.Row(dataset.RowID(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("grid.cell_of_ns", float64(ns)/float64(ds.Len()), ds.Len())

	// Block cache: fill it with the chunks above, then time hits.
	budget, err := memcache.NewBudget(256 << 20)
	if err != nil {
		return err
	}
	bc, err := chunkstore.NewBlockCache(budget)
	if err != nil {
		return err
	}
	st.SetBlockCache(bc)
	pass := func() error {
		for _, m := range chunks {
			if _, err := st.ReadChunk(ctx, m); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return err
	}
	const passes = 50
	ns, err = best(3, func() error {
		for i := 0; i < passes; i++ {
			if err := pass(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("blockcache.get_hit_ns", float64(ns)/float64(passes*len(chunks)), passes*len(chunks))

	// memcache: a session's resident set — the sample plus the largest
	// captured cell as its region.
	mbudget, err := memcache.NewBudget(64 << 20)
	if err != nil {
		return err
	}
	cache, err := memcache.NewCache(mbudget, st.Dims())
	if err != nil {
		return err
	}
	for _, row := range sample {
		if err := cache.AddSample(row.ID, row.Vals); err != nil {
			return err
		}
	}
	ns, err = best(5, func() error { return cache.SetRegion(in.cells[0], regionIDs, regionRows) })
	if err != nil {
		return err
	}
	r.res.set("memcache.install_region_us", float64(ns)/1e3, len(regionIDs))
	ns, _ = best(5, func() error {
		cache.EachSorted(func(uint32, []float64) bool { return true })
		return nil
	})
	r.res.set("memcache.each_sorted_us", float64(ns)/1e3, cache.Len())
	return nil
}

// scoringLayers measures kernel, learn and al on the captured labeled sets.
func (r *runner) scoringLayers(in layerInputs, model *learn.DWKNN) error {
	bounds, err := r.ds.Bounds()
	if err != nil {
		return err
	}
	scales := bounds.Widths()
	g, err := grid.New(bounds, 5)
	if err != nil {
		return err
	}
	centers := g.Centers()
	var blk *kernel.Block
	ns, _ := best(5, func() error { blk = kernel.Pack(centers); return nil })
	r.res.set("kernel.pack_ms", float64(ns)/1e6, len(centers))

	var fitNs int64
	for _, snap := range in.labeled {
		ns, err := best(5, func() error { return learn.NewDWKNN(7, scales).Fit(snap.X, snap.Y) })
		if err != nil {
			return err
		}
		fitNs += ns
	}
	r.res.set("learn.fit_us", float64(fitNs)/1e3/float64(len(in.labeled)), len(in.labeled))

	out := make([]float64, blk.N)
	ns, err = best(5, func() error { return model.BlockPosterior(blk, 0, blk.N, out) })
	if err != nil {
		return err
	}
	r.res.set("learn.block_posterior_ns_per_point", float64(ns)/float64(blk.N), blk.N)

	// The candidate pool of a step is a few thousand resident rows.
	rng := rand.New(rand.NewSource(1))
	pool := make([][]float64, 3000)
	cands := make([]al.Candidate, len(pool))
	for i := range pool {
		pool[i] = r.ds.Row(dataset.RowID(rng.Intn(r.ds.Len())))
		cands[i] = al.Candidate{ID: uint64(i), X: pool[i]}
	}
	post := make([]float64, len(pool))
	var ms0, ms1 runtime.MemStats
	const batches = 5
	runtime.ReadMemStats(&ms0)
	ns, err = best(batches, func() error { return model.BatchPosterior(pool, post) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	r.res.set("learn.batch_posterior_ns_per_row", float64(ns)/float64(len(pool)), len(pool))
	r.res.set("learn.allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs)/batches, batches)

	ns, err = best(5, func() error {
		_, err := al.SelectFromSlice(al.LeastConfidence{}, model, cands)
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("al.select_us", float64(ns)/1e3, len(cands))

	// The two kernel primitives DWKNN's block path is made of: one
	// training row's scaled-L2 strip over every center, and the k-smallest
	// selection per center over the labeled set's distance rows.
	X := in.labeled[len(in.labeled)-1].X
	q := make([][]float64, blk.Dims)
	for d := range q {
		q[d] = make([]float64, blk.N)
		kernel.ScaleInto(q[d], blk.Col(d), scales[d])
	}
	d2 := make([]float64, len(X)*blk.N)
	ns, _ = best(5, func() error {
		for i := range d2 {
			d2[i] = 0
		}
		for row, x := range X {
			strip := d2[row*blk.N : (row+1)*blk.N]
			for d := range q {
				kernel.AddSquaredDiff(strip, q[d], x[d]/scales[d])
			}
		}
		return nil
	})
	r.res.set("kernel.l2_ns_per_point", float64(ns)/float64(len(X)*blk.N), len(X)*blk.N)
	nb := make([]kernel.Neighbor, 0, 7)
	ns, _ = best(5, func() error {
		for i := 0; i < blk.N; i++ {
			nb = kernel.SelectKMin(d2, i, blk.N, len(X), 7, nb)
		}
		return nil
	})
	r.res.set("kernel.select_kmin_ns_per_point", float64(ns)/float64(blk.N), blk.N)
	return nil
}

// coreLayer times opening the workload's own store and the top-k cell
// selection over a scored index.
func (r *runner) coreLayer(_ layerInputs, model *learn.DWKNN) error {
	dir := r.base
	if r.w.Live {
		dir = r.sc.dir("open")
		if err := copyDir(r.base, dir); err != nil {
			return err
		}
	}
	cfg := serverConfig(r.w, dir)
	var idx *core.Index
	ns, err := best(3, func() (err error) {
		if idx != nil {
			idx.Close()
		}
		idx, err = core.Open(r.ctx, dir, core.Options{
			MemoryBudgetBytes: cfg.TotalBudgetBytes,
			BlockCacheBytes:   cfg.BlockCacheBytes,
			Shards:            cfg.Shards,
			LiveIngest:        cfg.LiveIngest,
			FollowLive:        cfg.FollowLive,
		})
		return err
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	r.res.set("core.open_ms", float64(ns)/1e6, 0)
	if err := idx.UpdateUncertainty(r.ctx, model); err != nil {
		return err
	}
	ns, err = best(20, func() error { _, err := idx.MostUncertainCells(2); return err })
	if err != nil {
		return err
	}
	r.res.set("core.select_ms", float64(ns)/1e6, idx.NumIndexPoints())
	return nil
}

// shardLayer measures the coordinator's scatter-gather operations: on the
// workload's own store when it is sharded, on a 4-shard fixture otherwise.
func (r *runner) shardLayer(in layerInputs, model *learn.DWKNN) error {
	ctx := r.ctx
	dir, buildS := r.base, r.buildS
	if r.w.Shards <= 1 || r.w.Live {
		ds, err := head(r.ds, smallFixtureRows)
		if err != nil {
			return err
		}
		dir = r.sc.dir("sharded")
		t0 := time.Now()
		if err := shard.Build(dir, ds, shard.BuildOptions{Shards: 4, TargetChunkBytes: chunkBytes}); err != nil {
			return err
		}
		buildS = time.Since(t0).Seconds()
	}
	r.res.set("shard.build_s", buildS, 0)
	coord, err := shard.Open(ctx, dir, shard.OpenOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	meta := coord.Meta()
	unc := make([]float64, meta.Grid.NumCells())
	ns, err := best(3, func() error {
		_, err := coord.ScoreAllPass(ctx, model, unc, shard.ScorePass{Kernel: true})
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("shard.score_all_ms", float64(ns)/1e6, len(unc))
	ns, err = best(10, func() error { _, _, err := coord.MostUncertain(ctx, unc, 2, nil); return err })
	if err != nil {
		return err
	}
	r.res.set("shard.most_uncertain_ms", float64(ns)/1e6, len(unc))
	var loadNs int64
	for _, cell := range in.cells {
		ns, err := best(1, func() error { _, _, _, err := coord.LoadCell(ctx, grid.CellID(cell)); return err })
		if err != nil {
			return err
		}
		loadNs += ns
	}
	r.res.set("shard.load_cell_ms", float64(loadNs)/1e6/float64(len(in.cells)), len(in.cells))

	// Exact retrieval marks every segment: the full scan the terminal step
	// runs on each shard.
	marked := make([][]bool, meta.Dims())
	for d, n := range meta.Grid.Segments() {
		marked[d] = make([]bool, n)
		for s := range marked[d] {
			marked[d][s] = true
		}
	}
	ns, err = best(2, func() error { _, _, err := coord.Retrieve(ctx, marked); return err })
	if err != nil {
		return err
	}
	r.res.set("shard.retrieve_ms", float64(ns)/1e6, 0)
	var slowest, sum float64
	for s := 0; s < coord.NumShards(); s++ {
		b := coord.Backends(s)[0]
		ns, err := best(2, func() error { _, _, err := b.Retrieve(ctx, marked); return err })
		if err != nil {
			return err
		}
		sum += float64(ns)
		slowest = math.Max(slowest, float64(ns))
	}
	r.res.set("shard.retrieve_skew", slowest/(sum/float64(coord.NumShards())), coord.NumShards())
	return nil
}

// streamLayer measures the live write path: on a copy of the workload's own
// store when it is live, on a small live fixture otherwise.
func (r *runner) streamLayer(_ layerInputs, _ *learn.DWKNN) error {
	ctx := r.ctx
	dir := r.sc.dir("stream")
	src := r.ds
	if r.w.Live {
		if err := copyDir(r.base, dir); err != nil {
			return err
		}
	} else {
		var err error
		if src, err = head(r.ds, smallFixtureRows); err != nil {
			return err
		}
		if err := stream.Create(dir, src, stream.CreateOptions{TargetChunkBytes: chunkBytes}); err != nil {
			return err
		}
	}
	batches, err := makeAppends(src, rand.New(rand.NewSource(r.opts.Seed)), 4)
	if err != nil {
		return err
	}
	db, err := stream.Open(dir, stream.Options{})
	if err != nil {
		return err
	}
	defer db.Close() // idempotent: the success path closes (and checks) below
	var appendNs int64
	for _, b := range batches {
		ns, err := best(1, func() error { _, err := db.Append(b.Rows); return err })
		if err != nil {
			return err
		}
		appendNs += ns
	}
	rows := float64(len(batches) * appendRows)
	r.res.set("stream.append_us_per_row", float64(appendNs)/1e3/rows, int(rows))
	info, err := stream.Inspect(dir)
	if err != nil {
		return err
	}
	r.res.set("stream.wal_bytes_per_row", float64(info.WALBytes)/float64(info.WALRows), info.WALRows)
	ns, err := best(1, func() error { return db.Flush(ctx) })
	if err != nil {
		return err
	}
	r.res.set("stream.flush_ms", float64(ns)/1e6, 0)
	ns, err = best(1, func() error { return db.Compact(ctx) })
	if err != nil {
		return err
	}
	r.res.set("stream.compact_ms", float64(ns)/1e6, 0)
	ns, err = best(100, func() error {
		snap, err := db.Acquire()
		if err == nil {
			snap.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("stream.acquire_us", float64(ns)/1e3, 0)
	if err := db.Close(); err != nil {
		return err
	}
	reopenNs := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		re, err := stream.Open(dir, stream.Options{})
		if err != nil {
			return err
		}
		if d := time.Since(t0).Nanoseconds(); d < reopenNs {
			reopenNs = d
		}
		if err := re.Close(); err != nil {
			return err
		}
	}
	r.res.set("stream.reopen_ms", float64(reopenNs)/1e6, 0)
	return nil
}
