// Command benchmark is the repo's replay benchmark for uei-serve: it builds
// a store, serves it in-process over net/http, replays a seeded list of
// exploration sessions against it for several identical rounds, keeps every
// operation's fastest replay, checks every result set, and prints the
// metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
)

type handlerWrap = func(http.Handler) http.Handler

// procs is the GOMAXPROCS of every run: one. The closed-loop client and the
// server never work at the same time, and on the shared 2-vCPU host the
// sizes were chosen on a second P buys no speed (explore-cold's step median
// is 5.4 ms on one P and 7.6 ms on two, set-up 0.5 s and 1.7 s: waking the
// idle vCPU for every parallel section costs more than the section saves)
// while it makes identical runs differ three times as much.
const procs = 1

func main() {
	var opts runOptions
	var trace int
	var compare bool
	flag.StringVar(&opts.Workload, "workload", "", "workload to run: explore-cold, explore-hot, retrieve-heavy or live-append")
	flag.Int64Var(&opts.Seed, "seed", 1, "seed the session list is generated from")
	flag.Float64Var(&opts.Seconds, "seconds", 20, "time budget for the timed rounds (never fewer than the workload's minimum rounds)")
	flag.IntVar(&trace, "trace", 0, "1 runs the span ladder and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&opts.Quick, "quick", false, "tiny stores and two rounds: a smoke run, not a measurement")
	flag.StringVar(&opts.OutDir, "out", "benchmark/out", "directory for result files, traces and scratch stores")
	flag.BoolVar(&compare, "compare", false, "compare two result files or directories: benchmark -compare BASE NEW")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare BASE NEW")
			os.Exit(2)
		}
		worse, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	runtime.GOMAXPROCS(procs)
	opts.Trace = trace != 0
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printHuman(res)
	// The last line of standard output is the machine-readable result.
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", d.Name)
			os.Exit(2)
		}
		out.Metrics[d.Name] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHuman lists every metric by name with its unit and, for
// percentiles, the sample count, then the run's diagnostics.
func printHuman(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: %d operations attempted, %d failed\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %-7s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(os.Stderr, " n=%d", m.Samples)
		}
		if m.Slowdown > 0 {
			fmt.Fprintf(os.Stderr, " (measured %.4f, host factor %.3f)", m.Measured, m.Slowdown)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "  rounds=%d noise_frac=%.3f terminal_share=%.3f total=%.1fs (gen %.2fs, regions %.2fs, check %.2fs)\n",
		len(res.Rounds), res.NoiseFrac, res.TerminalShare, res.TotalS, res.GenS, res.PlanS, res.CheckS)
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "  PROBLEM:", p)
	}
}
