// Command uei-ingest builds a UEI index (columnar inverted chunk stores,
// one per part, under an epoch manifest) from a numeric CSV file, or from
// the built-in synthetic SDSS generator. It corresponds to UEI's
// once-per-dataset Index Initialization phase (Algorithm 2 lines 1-11).
// Every build, static or -live, streams its rows into the store in bounded
// memory, so a -csv file may be larger than RAM: one shard reads the file
// once; -shards S > 1 reads it once to pin the grid bounds, once to find
// each row's shard and once per shard, holding one byte per row between
// passes.
//
// Usage:
//
//	uei-ingest -csv photoobj.csv -out ./store       # one shard, one pass over the file
//	uei-ingest -csv photoobj.csv -shards 4 -out ./s # four shards, six passes
//	uei-ingest -gen 1000000 -seed 7 -out ./store -chunk 481280
//	uei-ingest -inspect ./store
//	uei-ingest -verify ./store                      # open every part, check every chunk against its manifest
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
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-ingest:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		csvPath  = flag.String("csv", "", "numeric CSV with a header row to ingest, streamed in bounded memory (read once at -shards 1, S + 2 times at -shards S)")
		gen      = flag.Int("gen", 0, "generate this many synthetic SDSS-like tuples instead of reading a CSV")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "", "output store directory (must be empty or absent)")
		chunk    = flag.Int("chunk", chunkstore.DefaultTargetChunkBytes, "target chunk size in bytes (Table 1: 481280 = 470KB)")
		inspect  = flag.String("inspect", "", "print a summary of an existing store and exit")
		verify   = flag.String("verify", "", "open every part of an existing store (static or live) as serving does — idmap and row count against the manifest — read every chunk against its manifest, read a live store's WAL as opening it would, and exit; the first violation is the error")
		shards   = flag.Int("shards", 1, "partition the store into this many shards (1 = one shard)")
		segments = flag.Int("segments", 0, "grid segments per dimension the store records: -shards > 1 and -live hash cells over them, and readers of a one-shard store may pick another (0 = default 5)")
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
	// root span with a build child span, analyzable by uei-trace
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

	// Every build streams its rows into the store: a -csv file is read
	// once at one shard and S + 2 times at S > 1, never held in memory.
	var src dataset.Source
	if *csvPath != "" {
		fmt.Printf("streaming %s into the store...\n", *csvPath)
		src, err = dataset.OpenCSVFile(*csvPath)
	} else {
		fmt.Printf("generating %d synthetic SDSS-like tuples (seed %d)...\n", *gen, *seed)
		src, err = dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
	}
	if err != nil {
		return err
	}
	start := time.Now()
	_, build := obs.StartSpan(ctx, "build")
	if err = core.Build(*out, src, core.BuildOptions{TargetChunkBytes: *chunk, Shards: *shards, SegmentsPerDim: *segments, LiveIngest: *live}); err != nil {
		build.SetOutcome("error")
		build.End(nil)
		return err
	}
	build.End(map[string]float64{"shards": float64(*shards)})
	fmt.Printf("index built in %v (%d shards)\n", time.Since(start).Round(time.Millisecond), *shards)
	if *live {
		fmt.Println("live store: append with -follow or POST /v1/append")
	}
	return inspectStore(*out)
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

// perRow is bytes spread over rows, 0 for a store without rows.
func perRow(bytes int64, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(bytes) / float64(rows)
}

// verifyStore checks every part of the store under dir — each segment of
// its current epoch — as serving would open it, store and idmap against
// the manifest (shard.OpenPart), and then runs chunkstore.Verify over its
// chunks. Of a live store it then reads the WAL as Open would replay it
// (stream.Inspect).
func verifyStore(dir string) error {
	m, err := shard.ReadManifest(dir)
	if err != nil {
		return err
	}
	g, err := m.Grid()
	if err != nil {
		return err
	}
	for _, seg := range m.Segments {
		part := filepath.Join(dir, shard.SegmentDirName(seg.ID))
		opened, err := shard.OpenPart(part, g, seg, m.FlushedRows, "", shard.OpenOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		if err := verifyPart(part, opened.Store); err != nil {
			return err
		}
	}
	if !stream.IsLiveDir(dir) {
		return nil
	}
	wal := filepath.Join(dir, "wal")
	info, err := stream.Inspect(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", wal, err)
	}
	fmt.Printf("%s: ok (%d file(s), %d unflushed row(s))\n", wal, info.WALFiles, info.WALRows)
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

// inspectStore prints the current epoch of the store under dir — its
// geometry, its segments with their chunks per grid segment, the chunks
// that straddle a grid segment boundary — and, of a live one, its WAL.
func inspectStore(dir string) error {
	info, err := stream.Inspect(dir)
	if err != nil {
		return err
	}
	live := stream.IsLiveDir(dir)
	m := info.Manifest
	if live {
		fmt.Printf("live store %s:\n", dir)
	} else {
		fmt.Printf("static store %s:\n", dir)
	}
	fmt.Printf("  epoch:         %d\n", m.Epoch)
	fmt.Printf("  shards:        %d\n", m.Shards)
	fmt.Printf("  dimensions:    %d (%v)\n", len(m.Columns), m.Columns)
	fmt.Printf("  grid:          %d segments per dim\n", m.SegmentsPerDim)
	fmt.Printf("  chunk target:  %d bytes\n", m.TargetChunkBytes)
	fmt.Printf("  flushed rows:  %d\n", m.FlushedRows)
	if live {
		fmt.Printf("  wal:           %d file(s), %d bytes, %d unflushed row(s)\n", info.WALFiles, info.WALBytes, info.WALRows)
		fmt.Printf("  high water:    row id %d (%d acknowledged rows)\n", info.HighWaterID, int(info.HighWaterID)+1)
	}
	// A one-shard store over a column holding one value has no grid at
	// its recorded segment count, and so no chunk layout to show.
	g, gridErr := m.Grid()
	fmt.Printf("  segments:      %d\n", len(m.Segments))
	straddling := 0
	for _, seg := range m.Segments {
		fmt.Printf("    seg %d (shard %d): %d rows, %d bytes (%.2f B/row)\n", seg.ID, seg.Shard, seg.Rows, seg.Bytes, perRow(seg.Bytes, seg.Rows))
		if gridErr != nil {
			continue
		}
		layout, n, err := chunkLayout(filepath.Join(dir, shard.SegmentDirName(seg.ID)), g)
		if err != nil {
			return err
		}
		fmt.Printf("      chunks per grid segment: %s; %d straddling\n", layout, n)
		straddling += n
	}
	if gridErr != nil {
		fmt.Printf("  straddling:    unknown (%v)\n", gridErr)
		return nil
	}
	fmt.Printf("  straddling:    %d chunk(s) span a grid segment boundary\n", straddling)
	return nil
}

// chunkLayout reads the chunk manifest of the part under dir and returns,
// per dimension, how many of its chunks lie in each segment of g, and how
// many straddle a segment boundary (counted in no segment). The writer
// cuts at every boundary of the epoch grid, so a store it wrote has none;
// one read over another grid may, and is still valid.
func chunkLayout(dir string, g *grid.Grid) (string, int, error) {
	st, err := chunkstore.Open(dir, nil)
	if err != nil {
		return "", 0, err
	}
	defer st.Close()
	var b strings.Builder
	straddling := 0
	for d, metas := range st.Manifest().Chunks {
		counts := make([]int, g.Segments()[d])
		for _, c := range metas {
			lo, err := g.SegmentOf(d, c.MinValue)
			if err != nil {
				return "", 0, fmt.Errorf("%s: %w", dir, err)
			}
			hi, err := g.SegmentOf(d, c.MaxValue)
			if err != nil {
				return "", 0, fmt.Errorf("%s: %w", dir, err)
			}
			if lo != hi {
				straddling++
				continue
			}
			counts[lo]++
		}
		if d > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %v", st.Manifest().Columns[d], counts)
	}
	return b.String(), straddling, nil
}
