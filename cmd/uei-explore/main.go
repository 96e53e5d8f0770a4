// Command uei-explore runs a live interactive data exploration at the
// terminal: UEI proposes one tuple per iteration, the human answers y/n
// ("is this the kind of object you are looking for?"), and after the label
// budget is spent the engine retrieves everything the learned model
// considers relevant.
//
// Usage:
//
//	uei-explore -store ./store            # over an ingested store
//	uei-explore -gen 50000 -labels 30     # self-contained demo
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-explore:", err)
		os.Exit(1)
	}
}

// humanLabeler asks the terminal user for each label.
type humanLabeler struct {
	in      *bufio.Reader
	columns []string
	count   int
}

// Label implements ide.Labeler.
func (h *humanLabeler) Label(id uint32, row []float64) oracle.Label {
	h.count++
	fmt.Printf("\n[%d] tuple #%d:\n", h.count, id)
	for i, c := range h.columns {
		fmt.Printf("      %-8s = %g\n", c, row[i])
	}
	for {
		fmt.Print("      relevant? [y/n/q]: ")
		line, err := h.in.ReadString('\n')
		if err != nil {
			fmt.Println("\n(input closed; treating as not relevant)")
			return oracle.Negative
		}
		switch strings.ToLower(strings.TrimSpace(line)) {
		case "y", "yes":
			return oracle.Positive
		case "n", "no":
			return oracle.Negative
		case "q", "quit":
			fmt.Println("(quit requested; remaining answers default to not relevant)")
			return oracle.Negative
		}
	}
}

// Count implements ide.Labeler.
func (h *humanLabeler) Count() int { return h.count }

// allRowIDs enumerates 0..n-1.
func allRowIDs(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// mustSchema rebuilds a schema from stored column names; the store
// validated them at build time.
func mustSchema(columns []string) dataset.Schema {
	return dataset.MustSchema(columns...)
}

func run() error {
	var (
		storeDir = flag.String("store", "", "existing UEI store directory (from uei-ingest)")
		gen      = flag.Int("gen", 0, "generate a synthetic store of this many tuples first")
		seed     = flag.Int64("seed", 1, "seed for generation and sampling")
		labels   = flag.Int("labels", 25, "label budget (iterations)")
		budget   = flag.Int64("budget", 8<<20, "memory budget in bytes")
		maxShow  = flag.Int("show", 20, "max result tuples to print")
		auto     = flag.Bool("auto", false, "demo mode: a simulated user answers instead of you")
		savePath = flag.String("save", "", "write a session snapshot (labeled set) here at the end")
		loadPath = flag.String("resume", "", "resume from a session snapshot written by -save")
		tracePth = flag.String("trace", "", "write the run's hierarchical span trace as JSONL to this file (analyze with uei-trace)")
		metrAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
		summary  = flag.Bool("summary", false, "print a phase-latency breakdown table at the end")
		cacheByt = flag.Int64("block-cache-bytes", 0, "shared decoded-chunk block cache budget in bytes (0 disables)")
		shards   = flag.Int("shards", 0, "store layout: 0 = whatever -store holds (one shard with -gen), 1 = one shard, >1 = require (with -gen, build) exactly that many shards")
		shardDl  = flag.Duration("shard-deadline", 0, "per-shard operation deadline; slow shards are skipped and the step degrades (0 disables)")
	)
	flag.Parse()

	if *shards < 0 {
		return fmt.Errorf("-shards %d must not be negative", *shards)
	}
	if *shardDl < 0 {
		return fmt.Errorf("-shard-deadline %v must not be negative", *shardDl)
	}

	// Ctrl-C cancels the exploration cleanly: the session aborts within one
	// iteration, an in-flight region load stops at its next chunk boundary,
	// and deferred cleanup still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *tracePth != "" {
		tf, err := os.Create(*tracePth)
		if err != nil {
			return err
		}
		defer tf.Close()
		w := bufio.NewWriter(tf)
		defer w.Flush()
		tracer = obs.NewTracer(w)
	}
	if *metrAddr != "" {
		srv, err := server.ServeDebug(*metrAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	dir := *storeDir
	if dir == "" {
		if *gen <= 0 {
			return fmt.Errorf("either -store or -gen is required")
		}
		tmp, err := os.MkdirTemp("", "uei-explore-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		fmt.Printf("generating %d synthetic tuples and building a store in %s...\n", *gen, tmp)
		ds, err := dataset.GenerateSky(dataset.SkyConfig{N: *gen, Seed: *seed})
		if err != nil {
			return err
		}
		if err := core.Build(tmp, ds, core.BuildOptions{TargetChunkBytes: 64 * 1024, Shards: *shards}); err != nil {
			return err
		}
		dir = tmp
	}

	idx, err := core.Open(ctx, dir, core.Options{
		MemoryBudgetBytes: *budget,
		Seed:              *seed,
		Registry:          reg,
		BlockCacheBytes:   *cacheByt,
		Shards:            *shards,
		ShardDeadline:     *shardDl,
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	if idx.Sharded() {
		fmt.Printf("sharded store: %d shards\n", idx.NumShards())
	}

	columns := idx.Columns()
	scales := idx.Bounds().Widths()

	provider, err := ide.NewUEIProvider(idx)
	if err != nil {
		return err
	}
	provider.RetrievalCutoff = 0.05

	var labeler ide.Labeler
	seedWithPositive := false
	if *auto {
		// Demo mode: rebuild the tuples from the store and synthesize a
		// medium target region; a simulated user answers the questions.
		rows, err := idx.FetchRows(ctx, allRowIDs(idx.RowCount()))
		if err != nil {
			return err
		}
		ds := dataset.New(mustSchema(columns), len(rows))
		for _, r := range rows {
			if _, err := ds.Append(r.Vals); err != nil {
				return err
			}
		}
		region, err := oracle.FindRegion(ds, 0.004, 0.4, *seed, 12)
		if err != nil {
			return err
		}
		user, err := oracle.New(ds, region)
		if err != nil {
			return err
		}
		fmt.Printf("auto mode: simulated user seeks a region holding %d tuples (%.2f%%)\n",
			user.RelevantCount(), region.Selectivity(ds)*100)
		labeler = ide.OracleLabeler{O: user}
		seedWithPositive = true
	} else {
		labeler = &humanLabeler{in: bufio.NewReader(os.Stdin), columns: columns}
	}

	cfg := ide.Config{
		MaxLabels:        *labels,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, scales) },
		Strategy:         al.LeastConfidence{},
		Seed:             *seed,
		// A human cannot be asked for a guaranteed-positive example id, so
		// interactive sessions start with pure random acquisition; answer
		// "y" to at least one early tuple or the model cannot start
		// learning. Auto mode seeds from the simulated user.
		SeedWithPositive: seedWithPositive,
		Registry:         reg,
	}
	var sess *ide.Session
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		snap, err := ide.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("resuming from %s (%d labels already given)\n", *loadPath, len(snap.IDs))
		sess, err = ide.NewSessionFromSnapshot(cfg, provider, labeler, snap)
		if err != nil {
			return err
		}
	} else {
		var err error
		sess, err = ide.NewSession(cfg, provider, labeler)
		if err != nil {
			return err
		}
	}

	fmt.Printf("\nexploring %d tuples; you will label up to %d examples.\n", idx.RowCount(), *labels)
	fmt.Println("answer y if the shown tuple matches what you are looking for.")
	// With tracing on, the whole run is one trace: an "explore" root span
	// with the engine's prepare/iteration/label/retrain spans beneath it, so
	// uei-trace breaks down an interactive run the way it does a server
	// step. Without it the trace is nil and the root only measures.
	runCtx, root := obs.StartSpan(obs.ContextWithTrace(ctx, tracer.NewTrace()), "explore")
	res, err := sess.Run(runCtx)
	switch {
	case errors.Is(err, context.Canceled):
		root.SetOutcome("cancelled")
	case err != nil:
		root.SetOutcome("error")
	}
	root.End(nil)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("\nexploration interrupted; exiting cleanly.")
			return nil
		}
		return err
	}

	fmt.Printf("\nexploration finished: %d labels, %d iterations, %d tuples retrieved as relevant.\n",
		res.LabelsUsed, res.Iterations, len(res.Positive))
	show := len(res.Positive)
	if show > *maxShow {
		show = *maxShow
	}
	if show > 0 {
		fmt.Printf("first %d results:\n", show)
		rows, err := idx.FetchRows(ctx, res.Positive[:show])
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("  #%-8d %v\n", r.ID, r.Vals)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		err = sess.Snapshot().Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("session snapshot written to %s\n", *savePath)
	}

	stats := idx.Stats()
	fmt.Printf("\nindex stats: %d region swaps, %d bytes read, peak memory %d bytes\n",
		stats.RegionSwaps, stats.BytesRead, stats.PeakMemory)
	if *summary {
		fmt.Printf("\n%s", obs.FormatSummary(reg))
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			return fmt.Errorf("trace write: %w", err)
		}
		fmt.Printf("trace written to %s; analyze with uei-trace\n", *tracePth)
	}
	return nil
}
