// Command uei-ingest builds a UEI index (columnar inverted chunk store +
// manifest) from a numeric CSV file, or from the built-in synthetic SDSS
// generator. It corresponds to UEI's once-per-dataset Index Initialization
// phase (Algorithm 2 lines 1-11).
//
// Usage:
//
//	uei-ingest -csv photoobj.csv -out ./store
//	uei-ingest -gen 1000000 -seed 7 -out ./store -chunk 481280
//	uei-ingest -inspect ./store
//	uei-ingest -verify ./store                      # check every chunk against its manifest
//	uei-ingest -gen 100000 -live -out ./live       # WAL-backed live store
//	uei-ingest -csv grows.csv -follow -out ./live  # tail new rows into it
package main

import (
	"bufio"
	"context"
	"encoding/csv"
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
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
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
		verify   = flag.String("verify", "", "read every chunk of an existing store (flat, sharded or live) against its manifest and exit; the first violation is the error")
		external = flag.Bool("external", false, "stream the CSV through the external-sort builder (bounded memory, for inputs larger than RAM)")
		spill    = flag.Int("spill", 1<<20, "external build: max (value,id) pairs buffered per dimension before spilling")
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
	if *live && *external {
		return fmt.Errorf("-live does not support -external (the live builder seeds from an in-memory dataset)")
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

	if *external {
		if *shards > 1 {
			return fmt.Errorf("-external does not support -shards > 1 (the sharded builder partitions in memory)")
		}
		if *csvPath == "" {
			return fmt.Errorf("-external requires -csv (streamed input)")
		}
		start := time.Now()
		fmt.Printf("streaming %s through the external-sort builder...\n", *csvPath)
		_, build := obs.StartSpan(ctx, "build")
		st, err := buildExternalFromCSV(*csvPath, *out, *chunk, *spill)
		if err != nil {
			build.SetOutcome("error")
			build.End(nil)
			return err
		}
		build.End(map[string]float64{"rows": float64(st.RowCount())})
		fmt.Printf("index built in %v (%d rows, bounded memory)\n", time.Since(start).Round(time.Millisecond), st.RowCount())
		return inspectStore(*out)
	}

	var ds *dataset.Dataset
	start := time.Now()
	_, read := obs.StartSpan(ctx, "read")
	switch {
	case *csvPath != "" && *gen > 0:
		read.End(nil)
		return fmt.Errorf("-csv and -gen are mutually exclusive")
	case *csvPath != "":
		fmt.Printf("reading %s...\n", *csvPath)
		ds, err = dataset.ReadCSVFile(*csvPath)
	case *gen > 0:
		fmt.Printf("generating %d synthetic SDSS-like tuples (seed %d)...\n", *gen, *seed)
		ds, err = dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
	default:
		read.End(nil)
		return fmt.Errorf("one of -csv or -gen is required")
	}
	if err != nil {
		read.SetOutcome("error")
		read.End(nil)
		return err
	}
	read.End(map[string]float64{"rows": float64(ds.Len())})
	fmt.Printf("dataset: %d tuples x %d attributes (%s), %d bytes raw, loaded in %v\n",
		ds.Len(), ds.Dims(), ds.Schema(), ds.SizeBytes(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	_, build := obs.StartSpan(ctx, "build")
	if err := core.Build(*out, ds, core.BuildOptions{TargetChunkBytes: *chunk, Shards: *shards, SegmentsPerDim: *segments, LiveIngest: *live}); err != nil {
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

// buildExternalFromCSV streams a headered numeric CSV row by row into the
// external-sort builder, never holding the dataset in memory.
func buildExternalFromCSV(path, out string, chunk, spill int) (*chunkstore.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	columns := append([]string(nil), header...)
	row := make([]float64, len(columns))
	line := 1
	iter := func() ([]float64, bool, error) {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil, false, nil
		}
		line++
		if err != nil {
			return nil, false, fmt.Errorf("csv line %d: %w", line, err)
		}
		if len(rec) != len(columns) {
			return nil, false, fmt.Errorf("csv line %d has %d fields, want %d", line, len(rec), len(columns))
		}
		for i, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, false, fmt.Errorf("csv line %d field %q: %w", line, columns[i], err)
			}
			row[i] = v
		}
		return row, true, nil
	}
	return chunkstore.BuildExternal(out, columns, iter, chunkstore.ExternalBuildOptions{
		TargetChunkBytes: chunk,
		MaxPairsInMemory: spill,
	})
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

// verifyStore runs chunkstore.Verify over every flat store of the layout
// under dir: the directory itself, each shard, or each live segment.
func verifyStore(dir string) error {
	var parts []string
	switch {
	case stream.IsLiveDir(dir):
		m, err := stream.ReadManifest(dir)
		if err != nil {
			return err
		}
		for _, seg := range m.Segments {
			parts = append(parts, filepath.Join(dir, stream.SegmentDirName(seg.ID)))
		}
	case shard.IsShardedDir(dir):
		m, err := shard.LoadManifest(dir)
		if err != nil {
			return err
		}
		for s := 0; s < m.Shards; s++ {
			parts = append(parts, filepath.Join(dir, shard.ShardDirName(s)))
		}
	default:
		parts = []string{dir}
	}
	for _, part := range parts {
		st, err := chunkstore.Open(part, nil)
		if err != nil {
			return err
		}
		if err := chunkstore.Verify(context.Background(), st); err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		fmt.Printf("%s: ok (%d rows, %d bytes in chunks, %.2f B/row)\n", part, st.RowCount(), st.TotalBytes(), perRow(st.TotalBytes(), st.RowCount()))
	}
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
