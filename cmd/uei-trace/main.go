// Command uei-trace analyzes a span trace written by uei-serve -trace (or
// by uei-explore, uei-ingest or uei-bench -trace): it rebuilds the span
// trees from parent references and prints the SLO compliance report and
// the top-N slowest span trees for the traces rooted at a "step" span
// (server step requests), one line per other root name (create, result,
// explore, ingest, run), and, over every trace, the aggregate per-phase
// budget attribution, per-shard skew, and degradation-cause counts.
//
// Usage:
//
//	uei-trace steps.jsonl
//	uei-trace -top 5 -slo 250ms steps.jsonl
//	uei-trace -strict steps.jsonl   # exit 1 on orphaned spans / no steps
//
// With no file argument the trace is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/uei-db/uei/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uei-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topN   = flag.Int("top", 3, "slowest steps to print with full span trees")
		slo    = flag.Duration("slo", 0, "per-step SLO budget for the compliance report (0 = the 500ms default)")
		strict = flag.Bool("strict", false, "fail when the trace has orphaned spans or no traced steps at all")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 1 {
		return fmt.Errorf("at most one trace file argument, got %d", flag.NArg())
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	events, err := obs.ReadTrace(in)
	if err != nil {
		return err
	}
	a := obs.Analyze(events)
	budget := *slo
	if budget <= 0 {
		budget = obs.DefaultSLOBudget
	}
	if err := a.WriteReport(os.Stdout, obs.ReportOptions{TopN: *topN, Budget: budget}); err != nil {
		return err
	}
	if *strict {
		if orphans := a.Orphans(); len(orphans) > 0 {
			return fmt.Errorf("strict: %d orphaned spans (first: %s)", len(orphans), orphans[0])
		}
		if len(a.Steps) == 0 {
			return fmt.Errorf("strict: no traced steps in input (%d traces with other roots)", len(a.Others))
		}
		for _, st := range a.Others {
			if st.Root == nil {
				return fmt.Errorf("strict: trace %s has no root span", st.TraceID)
			}
		}
	}
	return nil
}
