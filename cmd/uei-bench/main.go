// Command uei-bench regenerates the paper's evaluation: Table 1, the
// accuracy figures 3-5 (F-measure vs labeled examples, UEI vs the DBMS
// baseline, for small/medium/large target regions), the response-time
// figure 6, and the ablations of DESIGN.md.
//
// Quick mode (default) runs the scaled-down configuration in minutes;
// -full approaches the paper's data:memory ratio and takes much longer.
//
// Usage:
//
//	uei-bench                  # table 1 + figures 3-6, quick mode
//	uei-bench -full            # workstation-scale reproduction
//	uei-bench -fig6            # one figure only
//	uei-bench -ablate=all      # every ablation sweep
//	uei-bench -n 200000 -runs 5 -labels 200
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/uei-db/uei/internal/experiment"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		full    = flag.Bool("full", false, "workstation-scale configuration (2M tuples, 1% memory, throttled I/O)")
		table1  = flag.Bool("table1", false, "print only Table 1")
		fig3    = flag.Bool("fig3", false, "run only Figure 3 (small region accuracy)")
		fig4    = flag.Bool("fig4", false, "run only Figure 4 (medium region accuracy)")
		fig5    = flag.Bool("fig5", false, "run only Figure 5 (large region accuracy)")
		fig6    = flag.Bool("fig6", false, "run only Figure 6 (response time; uses the classes already run or medium)")
		ablate  = flag.String("ablate", "", "ablation sweep: chunk|points|prefetch|gamma|regions|all")
		n       = flag.Int("n", 0, "override dataset cardinality")
		runs    = flag.Int("runs", 0, "override runs per result")
		labels  = flag.Int("labels", 0, "override label budget per run")
		seed    = flag.Int64("seed", 0, "override base seed")
		bw      = flag.Int64("iobw", -1, "override shared I/O bandwidth in bytes/sec (0 = unthrottled)")
		prefec  = flag.Bool("prefetch", false, "enable §3.2 background region prefetching (needs -iobw: θ is derived from the I/O rate)")
		segs    = flag.Int("segments", 0, "override grid segments per dimension (|P| = segments^5)")
		workdir = flag.String("workdir", "", "directory for the built stores (default: temp)")
		csvDir  = flag.String("csv", "", "also export figure data as CSV into this directory")
		trace   = flag.String("trace", "", "write one span trace per run (root \"run\") as JSONL to this file (analyze with uei-trace)")
		metrA   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
		summary = flag.Bool("summary", false, "print a phase-latency breakdown table at the end")
		cacheB  = flag.Int64("block-cache-bytes", 0, "shared decoded-chunk block cache budget in bytes (0 disables, the paper's discipline)")
		shards  = flag.Int("shards", 1, "store layout: 1 = one shard (the paper's configuration), >1 = sharded scatter-gather with that many shards")
	)
	flag.Parse()

	if *shards < 1 {
		return fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	cfg := experiment.DefaultConfig()
	if *full {
		cfg = experiment.FullConfig()
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer tf.Close()
		w := bufio.NewWriter(tf)
		defer w.Flush()
		cfg.Trace = obs.NewTracer(w)
	}
	if *metrA != "" {
		srv, err := server.ServeDebug(*metrA, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	defer func() {
		if *summary {
			fmt.Printf("\n%s", obs.FormatSummary(reg))
		}
		if cfg.Trace == nil {
			return
		}
		if err := cfg.Trace.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "uei-bench: trace write:", err)
		} else {
			fmt.Printf("trace written to %s; analyze with uei-trace\n", *trace)
		}
	}()
	if *n > 0 {
		cfg.N = *n
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *labels > 0 {
		cfg.MaxLabels = *labels
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *bw >= 0 {
		cfg.IOBandwidthBytesPerSec = *bw
	}
	if *prefec {
		cfg.EnablePrefetch = true
	}
	if *segs > 0 {
		cfg.SegmentsPerDim = *segs
	}
	if *cacheB > 0 {
		cfg.BlockCacheBytes = *cacheB
	}
	if *shards > 1 {
		cfg.Shards = *shards
	}
	if cfg.EnablePrefetch && cfg.IOBandwidthBytesPerSec <= 0 {
		return fmt.Errorf("prefetch (-prefetch, or -full) needs a positive -iobw: θ is derived from the I/O limiter's rate, and an unthrottled run has none")
	}
	cfg.WorkDir = *workdir

	fmt.Println(experiment.Table1(cfg))
	if *table1 {
		return nil
	}

	start := time.Now()
	fmt.Printf("building environment (N=%d)...\n", cfg.N)
	env, err := experiment.Setup(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("environment ready in %v (budget %d bytes, %.2f%% of heap)\n\n",
		time.Since(start).Round(time.Millisecond), env.BudgetBytes(), cfg.MemoryBudgetFraction*100)

	if *ablate != "" {
		return runAblations(env, cfg, *ablate)
	}

	classes := pickClasses(*fig3, *fig4, *fig5, *fig6)
	var results []*experiment.ComparisonResult
	for _, class := range classes {
		fmt.Printf("running %s-region comparison (%d runs x 2 schemes x %d labels)...\n",
			class, cfg.Runs, cfg.MaxLabels)
		t0 := time.Now()
		res, err := experiment.RunComparison(env, class)
		if err != nil {
			return err
		}
		fmt.Printf("done in %v\n\n", time.Since(t0).Round(time.Millisecond))
		if !*fig6 {
			fmt.Println(experiment.FormatAccuracyFigure(res))
		}
		if *csvDir != "" {
			paths, err := experiment.ExportComparisonCSV(*csvDir, res)
			if err != nil {
				return err
			}
			fmt.Printf("exported %v\n\n", paths)
		}
		results = append(results, res)
	}
	fmt.Println(experiment.FormatResponseTimeFigure(results))
	fmt.Printf("mean response-time speedup across classes: %.1fx\n", experiment.SpeedupAcrossClasses(results))
	return nil
}

// pickClasses maps figure flags to region classes; no flags means all.
func pickClasses(f3, f4, f5, f6 bool) []oracle.SizeClass {
	if !f3 && !f4 && !f5 && !f6 {
		return []oracle.SizeClass{oracle.Small, oracle.Medium, oracle.Large}
	}
	var out []oracle.SizeClass
	if f3 {
		out = append(out, oracle.Small)
	}
	if f4 {
		out = append(out, oracle.Medium)
	}
	if f5 {
		out = append(out, oracle.Large)
	}
	if f6 && len(out) == 0 {
		out = []oracle.SizeClass{oracle.Small, oracle.Medium, oracle.Large}
	}
	return out
}

func runAblations(env *experiment.Env, cfg experiment.Config, which string) error {
	want := func(name string) bool { return which == name || which == "all" }
	if want("points") {
		pts, err := experiment.AblateIndexPoints(env, []int{3, 4, 5, 6, 7})
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatAblation("Ablation A2: symbolic index points (segments per dimension)", pts))
	}
	if want("gamma") {
		base := int(env.BudgetBytes() / 88 / 2)
		pts, err := experiment.AblateGamma(env, []int{base / 4, base / 2, base, base * 2})
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatAblation("Ablation A5: uniform sample size gamma", pts))
	}
	if want("prefetch") {
		pts, err := experiment.AblatePrefetch(env)
		switch {
		case errors.Is(err, experiment.ErrA3NeedsLimiter):
			fmt.Printf("Ablation A3: prefetch & latency threshold\n  skipped: A3 needs -iobw (θ is derived from the I/O limiter's rate)\n\n")
		case err != nil:
			return err
		default:
			fmt.Println(experiment.FormatAblation("Ablation A3: prefetch & latency threshold", pts))
		}
	}
	if want("regions") {
		pts, err := experiment.AblateResidentRegions(env, []int{1, 2, 4})
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatAblation("Ablation A6: resident region bound", pts))
	}
	if want("chunk") {
		sizes := []int{cfg.TargetChunkBytes / 4, cfg.TargetChunkBytes, cfg.TargetChunkBytes * 4}
		pts, err := experiment.AblateChunkSize(cfg, sizes)
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatAblation("Ablation A1: chunk size", pts))
	}
	if which != "all" && !oneOf(which, "points", "gamma", "prefetch", "chunk", "regions") {
		return fmt.Errorf("unknown ablation %q (chunk|points|prefetch|gamma|regions|all)", which)
	}
	return nil
}

func oneOf(s string, opts ...string) bool {
	for _, o := range opts {
		if s == o {
			return true
		}
	}
	return false
}
