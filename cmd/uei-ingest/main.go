// Command uei-ingest builds a UEI index (columnar inverted chunk store +
// manifest) from a numeric CSV file, or from the built-in synthetic SDSS
// generator. It corresponds to UEI's once-per-dataset Index Initialization
// phase (Algorithm 2 lines 1-11). A flat -csv build streams the file into
// the store in bounded memory, so the file may be larger than RAM; with
// -shards or -live the file is read into memory first, because the
// partition needs the dataset's bounds before the first row is placed.
//
// Usage:
//
//	uei-ingest -csv photoobj.csv -out ./store       # streamed, bounded memory
//	uei-ingest -gen 1000000 -seed 7 -out ./store -chunk 481280
//	uei-ingest -inspect ./store
//	uei-ingest -verify ./store                      # check every chunk against its manifest
//	uei-ingest -gen 100000 -live -out ./live       # WAL-backed live store
//	uei-ingest -csv grows.csv -follow -out ./live  # tail new rows into it
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
	"github.com/uei-db/uei/internal/vec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-ingest:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		csvPath  = flag.String("csv", "", "numeric CSV with a header row to ingest")
		gen      = flag.Int("gen", 0, "generate this many synthetic SDSS-like tuples instead of reading a CSV")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "", "output store directory (must be empty or absent)")
		chunk    = flag.Int("chunk", chunkstore.DefaultTargetChunkBytes, "target chunk size in bytes (Table 1: 481280 = 470KB)")
		inspect  = flag.String("inspect", "", "print a summary of an existing store and exit")
		verify   = flag.String("verify", "", "open every part of an existing store (flat, sharded or live) as serving does — idmap and row count against the manifest — read every chunk against its manifest, and exit; the first violation is the error")
		shards   = flag.Int("shards", 1, "partition the store into this many shards (1 = flat legacy layout)")
		segments = flag.Int("segments", 0, "sharded build: grid segments per dimension cells are hashed over (0 = default 5)")
		traceFl  = flag.String("trace", "", "write a hierarchical span trace of the ingest as JSONL to this file (analyze with uei-trace)")
		live     = flag.Bool("live", false, "build the live (streaming) layout: a WAL-backed write store that accepts appends after the build (see -follow)")
		follow   = flag.Bool("follow", false, "tail -csv into an existing live store in -out: already-ingested rows are skipped, new lines are appended and flushed as they land; Ctrl-C stops")
	)
	flag.Parse()

	if *shards < 1 {
		return fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	if *inspect != "" {
		return inspectStore(*inspect)
	}
	if *verify != "" {
		return verifyStore(*verify)
	}
	if *follow {
		if *csvPath == "" || *out == "" {
			return fmt.Errorf("-follow requires -csv and -out (an existing live store)")
		}
		return followCSV(*csvPath, *out)
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *csvPath != "" && *gen > 0 {
		return fmt.Errorf("-csv and -gen are mutually exclusive")
	}
	if *csvPath == "" && *gen <= 0 {
		return fmt.Errorf("one of -csv or -gen is required")
	}

	// With -trace, the whole ingest is one hierarchical trace: an "ingest"
	// root span with read and build child spans, analyzable by uei-trace
	// exactly like a server step trace. Without it the span calls below are
	// measuring-only no-ops.
	ctx := context.Background()
	if *traceFl != "" {
		tf, err := os.Create(*traceFl)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer tf.Close()
		bw := bufio.NewWriter(tf)
		defer bw.Flush()
		tracer := obs.NewTracer(bw)
		ctx = obs.ContextWithTrace(ctx, tracer.NewTrace())
		defer fmt.Printf("trace written to %s; analyze with uei-trace\n", *traceFl)
	}
	ctx, root := obs.StartSpan(ctx, "ingest")
	defer func() {
		if err != nil {
			root.SetOutcome("error")
		}
		root.End(nil)
	}()

	// A flat store is written straight from the file, in bounded memory. A
	// sharded or live build partitions by the dataset's bounds, so it reads
	// the file into memory first.
	streamed := *csvPath != "" && *shards == 1 && !*live
	var ds *dataset.Dataset
	if !streamed {
		start := time.Now()
		_, read := obs.StartSpan(ctx, "read")
		if *csvPath != "" {
			fmt.Printf("reading %s...\n", *csvPath)
			ds, err = dataset.ReadCSVFile(*csvPath)
		} else {
			fmt.Printf("generating %d synthetic SDSS-like tuples (seed %d)...\n", *gen, *seed)
			ds, err = dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
		}
		if err != nil {
			read.SetOutcome("error")
			read.End(nil)
			return err
		}
		read.End(map[string]float64{"rows": float64(ds.Len())})
		fmt.Printf("dataset: %d tuples x %d attributes (%s), %d bytes raw, loaded in %v\n",
			ds.Len(), ds.Dims(), ds.Schema(), ds.SizeBytes(), time.Since(start).Round(time.Millisecond))
	}

	start := time.Now()
	_, build := obs.StartSpan(ctx, "build")
	if streamed {
		fmt.Printf("streaming %s into the store...\n", *csvPath)
		err = buildFromCSV(*csvPath, *out, *chunk)
	} else {
		err = core.Build(*out, ds, core.BuildOptions{TargetChunkBytes: *chunk, Shards: *shards, SegmentsPerDim: *segments, LiveIngest: *live})
	}
	if err != nil {
		build.SetOutcome("error")
		build.End(nil)
		return err
	}
	build.End(map[string]float64{"shards": float64(*shards)})
	if *live {
		fmt.Printf("live store built in %v (%d shards); append with -follow or POST /v1/append\n",
			time.Since(start).Round(time.Millisecond), *shards)
	} else if *shards > 1 {
		fmt.Printf("index built in %v (%d shards)\n", time.Since(start).Round(time.Millisecond), *shards)
	} else {
		fmt.Printf("index built in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return inspectStore(*out)
}

// buildFromCSV streams a headered numeric CSV row by row into a flat
// store, never holding the dataset in memory.
func buildFromCSV(path, out string, chunk int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	cr, err := dataset.NewCSVReader(f)
	if err != nil {
		return err
	}
	_, err = chunkstore.BuildRows(out, cr.Schema().Names(), cr.Next, chunkstore.BuildOptions{TargetChunkBytes: chunk})
	return err
}

// followCSV tails a headered numeric CSV into an existing live store:
// rows the store already holds are skipped, new complete lines are
// appended (WAL-fsynced) and flushed so they become visible to readers,
// and a torn trailing line is kept pending until its newline arrives.
func followCSV(path, dir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	db, err := stream.Open(dir, stream.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)

	header, err := readFullLine(br, "")
	if err != nil {
		return fmt.Errorf("read csv header: %w", err)
	}
	if header == "" {
		return fmt.Errorf("%s: empty csv header", path)
	}
	cols := strings.Split(strings.TrimRight(header, "\r"), ",")
	want := db.Columns()
	if len(cols) != len(want) {
		return fmt.Errorf("%s has %d columns, live store has %d (%v)", path, len(cols), len(want), want)
	}

	skip := db.TotalRows()
	fmt.Printf("following %s into %s (epoch %d, %d rows already ingested)...\n", path, dir, db.Epoch(), skip)
	appended := 0
	var pending string
	var batch [][]float64
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := db.Append(batch); err != nil {
			return err
		}
		appended += len(batch)
		batch = batch[:0]
		// Flush eagerly so tailed rows commit an epoch readers can see
		// without waiting for the memtable size threshold.
		return db.Flush(ctx)
	}
	for {
		line, err := readFullLine(br, pending)
		switch {
		case err == errTornLine:
			// End of file, possibly mid-line: hold the fragment, drain the
			// batch, and poll for growth.
			pending = line
			if err := flushBatch(); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				fmt.Printf("\nstopped; %d rows appended (epoch %d, %d total rows)\n", appended, db.Epoch(), db.TotalRows())
				return nil
			case <-time.After(500 * time.Millisecond):
			}
			continue
		case err != nil:
			return err
		}
		pending = ""
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(want) {
			return fmt.Errorf("csv row %q has %d fields, want %d", line, len(fields), len(want))
		}
		row := make([]float64, len(fields))
		for i, field := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("csv field %q (%s): %w", field, want[i], err)
			}
			row[i] = v
		}
		batch = append(batch, row)
		if len(batch) >= 1024 {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
}

// errTornLine marks a line still missing its newline at EOF.
var errTornLine = fmt.Errorf("torn line")

// readFullLine returns the next newline-terminated line (without the
// newline), prepending a fragment held from the previous poll. At EOF it
// returns the accumulated fragment with errTornLine.
func readFullLine(br *bufio.Reader, pending string) (string, error) {
	chunk, err := br.ReadString('\n')
	if err == io.EOF {
		return pending + chunk, errTornLine
	}
	if err != nil {
		return "", err
	}
	return pending + strings.TrimSuffix(chunk, "\n"), nil
}

func inspectStore(dir string) error {
	if stream.IsLiveDir(dir) {
		return inspectLiveStore(dir)
	}
	if shard.IsShardedDir(dir) {
		return inspectShardedStore(dir)
	}
	st, err := chunkstore.Open(dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	m := st.Manifest()
	fmt.Printf("store %s:\n", dir)
	fmt.Printf("  rows:          %d\n", st.RowCount())
	fmt.Printf("  dimensions:    %d (%v)\n", st.Dims(), m.Columns)
	fmt.Printf("  total bytes:   %d (%.2f B/row)\n", st.TotalBytes(), perRow(st.TotalBytes(), st.RowCount()))
	fmt.Printf("  chunk format:  v%d\n", chunkstore.ChunkVersion)
	fmt.Printf("  chunk target:  %d bytes\n", m.TargetChunkBytes)
	for d, chunks := range m.Chunks {
		var bytes int64
		var refs int
		for _, c := range chunks {
			bytes += c.Bytes
			refs += c.RowRefs
		}
		fmt.Printf("  dim %d (%s): %d chunks, %d bytes (%.2f B/row), %d row refs, values [%g, %g]\n",
			d, m.Columns[d], len(chunks), bytes, perRow(bytes, st.RowCount()), refs, m.MinValues[d], m.MaxValues[d])
	}
	return nil
}

// perRow is bytes spread over rows, 0 for a store without rows.
func perRow(bytes int64, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(bytes) / float64(rows)
}

// verifyStore checks every part of the layout under dir — each shard,
// each live segment, or the flat directory itself — as serving would open
// it, store and idmap against the manifest (shard.OpenPart), and then runs
// chunkstore.Verify over its chunks.
func verifyStore(dir string) error {
	type part struct {
		dir  string
		rows int
	}
	var parts []part
	var g *grid.Grid
	var layoutRows int
	switch {
	case stream.IsLiveDir(dir):
		m, err := stream.ReadManifest(dir)
		if err != nil {
			return err
		}
		if g, err = grid.New(vec.NewBox(m.MinValues, m.MaxValues), m.SegmentsPerDim); err != nil {
			return err
		}
		layoutRows = m.FlushedRows
		for _, seg := range m.Segments {
			parts = append(parts, part{filepath.Join(dir, stream.SegmentDirName(seg.ID)), seg.Rows})
		}
	case shard.IsShardedDir(dir):
		m, err := shard.LoadManifest(dir)
		if err != nil {
			return err
		}
		if g, err = m.Grid(); err != nil {
			return err
		}
		layoutRows = m.RowCount
		for s, rows := range m.ShardRowCounts {
			parts = append(parts, part{filepath.Join(dir, shard.ShardDirName(s)), rows})
		}
	default:
		st, err := chunkstore.Open(dir, nil)
		if err != nil {
			return err
		}
		return verifyPart(dir, st)
	}
	for _, p := range parts {
		opened, err := shard.OpenPart(p.dir, g, p.rows, layoutRows, "", shard.OpenOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", p.dir, err)
		}
		if err := verifyPart(p.dir, opened.Store); err != nil {
			return err
		}
	}
	return nil
}

// verifyPart reads every chunk of one store against its manifest, and
// closes the store.
func verifyPart(dir string, st *chunkstore.Store) error {
	defer st.Close()
	if err := chunkstore.Verify(context.Background(), st); err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	fmt.Printf("%s: ok (%d rows, %d bytes in chunks, %.2f B/row)\n", dir, st.RowCount(), st.TotalBytes(), perRow(st.TotalBytes(), st.RowCount()))
	return nil
}

func inspectLiveStore(dir string) error {
	info, err := stream.Inspect(dir)
	if err != nil {
		return err
	}
	m := info.Manifest
	fmt.Printf("live store %s:\n", dir)
	fmt.Printf("  epoch:         %d\n", m.Epoch)
	fmt.Printf("  shards:        %d\n", m.Shards)
	fmt.Printf("  dimensions:    %d (%v)\n", len(m.Columns), m.Columns)
	fmt.Printf("  grid:          %d segments per dim\n", m.SegmentsPerDim)
	fmt.Printf("  chunk target:  %d bytes\n", m.TargetChunkBytes)
	fmt.Printf("  flushed rows:  %d\n", m.FlushedRows)
	fmt.Printf("  wal:           %d file(s), %d bytes, %d unflushed row(s)\n", info.WALFiles, info.WALBytes, info.WALRows)
	fmt.Printf("  high water:    row id %d (%d acknowledged rows)\n", info.HighWaterID, int(info.HighWaterID)+1)
	fmt.Printf("  segments:      %d\n", len(m.Segments))
	for _, seg := range m.Segments {
		fmt.Printf("    seg %d (shard %d): %d rows, %d bytes\n", seg.ID, seg.Shard, seg.Rows, seg.Bytes)
	}
	return nil
}

func inspectShardedStore(dir string) error {
	m, err := shard.LoadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("sharded store %s:\n", dir)
	fmt.Printf("  shards:        %d (%s)\n", m.Shards, m.Hash)
	fmt.Printf("  rows:          %d\n", m.RowCount)
	fmt.Printf("  dimensions:    %d (%v)\n", len(m.Columns), m.Columns)
	fmt.Printf("  grid:          %d segments per dim\n", m.SegmentsPerDim)
	fmt.Printf("  chunk target:  %d bytes\n", m.TargetChunkBytes)
	for s, n := range m.ShardRowCounts {
		fmt.Printf("  %s: %d rows\n", shard.ShardDirName(s), n)
	}
	return nil
}
