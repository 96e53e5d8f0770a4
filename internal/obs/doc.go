// Package obs is the unified observability layer of the UEI stack: a
// lock-cheap metrics registry, a context-propagated span tracer, and
// exporters that make both visible to humans and scrapers.
//
// The paper's headline claim is per-iteration interactivity — every
// exploration iteration must finish inside the σ = 500 ms bound even at a
// restricted memory budget. Verifying (and later improving) that claim
// requires attributing each iteration's wall time to its phases: symbolic
// index scoring, chunk-store region loads, classifier retraining, prefetch
// waits, and cache swaps. This package provides the substrate:
//
//   - Registry: named atomic counters, gauges, and fixed-bucket latency
//     histograms. Instruments are created once and then updated with a
//     single atomic operation, so they are safe (and cheap) to touch from
//     the exploration loop and the prefetcher goroutine concurrently while
//     an HTTP scraper snapshots them.
//   - Tracing: one span model. A Tracer is a sink — an io.Writer taking
//     structured JSON Lines events, a clock, a trace-id allocator — held
//     only by the sites that mint a Trace: the server per create, step and
//     result request, uei-explore and uei-ingest per run, the experiment
//     harness per run. The trace rides in the context; StartSpan is the
//     only way to open a span, and every span opened under that context —
//     queue wait, engine phases (score/load/swap/select/label/retrain),
//     per-shard fan-out legs, chunk and cache reads, a flush the call
//     forced — carries trace and span ids, a parent-span reference, an
//     outcome annotation, nanosecond durations and free-form numeric
//     attributes, so the JSONL stream reconstructs into one tree per
//     operation (Analyze, cmd/uei-trace). Without a trace in context the
//     same call sites get measuring-only spans: End still returns the
//     duration (it feeds the phase histograms), nothing is written.
//   - Samples: the one latency summary — an exact sample set with
//     nearest-rank quantiles and "within budget" meaning <=. Every report
//     (figure CSVs, examples, uei-trace, the SLO gauges)
//     reads it, and the Histogram's bucket lookup takes its rank from the
//     same rule, so two tools cannot disagree about one run.
//   - SLO: a per-step interactivity budget accountant — rolling
//     p50/p95/p99 step-latency gauges (Samples over a ring of recent
//     steps), a violation counter, and per-phase attribution of violating
//     steps' wall time, fed from Trace.PhaseTotals.
//   - Exporters: an expvar-style JSON snapshot, a Prometheus text-format
//     dump (labeled series like shard_skip_total{shard="0"} grouped into
//     one # TYPE family per base name), an http.Server bundling /metrics,
//     /debug/vars, and net/http/pprof, and a phase-latency breakdown
//     table (FormatSummary) that attributes total iteration wall time to
//     named phases.
//
// All instrument methods are nil-receiver safe no-ops, and a nil *Registry
// hands out nil instruments, so callers thread a single optional *Registry
// through the stack without guarding every observation site.
//
// Metric naming follows Prometheus conventions: snake_case, a subsystem
// prefix (uei_, chunkstore_, prefetch_, memcache_, ide_), unit suffixes
// (_seconds, _bytes), and _total for counters. Phase latency histograms
// share the phase_<name>_seconds pattern that FormatSummary keys on.
package obs
