package main

// metricDef is one reported metric. Bound is the share of the baseline's
// median by which an end-to-end metric may get worse before -compare (and
// the repo's PR gate, through BENCHMARK.json) calls it a regression;
// per-layer metrics explain a change and carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what an analyst (or an operator sizing a box) sees. The same
// set is reported on every workload; BENCHMARK.json lists exactly these.
// Times and steps_per_s are reported at nominal host speed (calib.go). The
// time bounds are the widest the driver accepts; A/A sets on the box the
// sizes were chosen on agree within 7%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_p95_ms", "ms", "lower", 0.25},
	{"terminal_p50_ms", "ms", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"slo_ok_frac", "ratio", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"store_bytes_per_row", "B/row", "lower", 0.01},
}

// resultFileOnly metrics are written to the result file and judged by
// -compare but cannot be listed in BENCHMARK.json, whose metrics must be
// reported (non-zero) on every workload and stay steady across seeds:
// appends exist on live-append only, and F1 is exact for a seed but
// legitimately differs between seeds by more than any accepted bound.
var resultFileOnly = []metricDef{
	{"append_p50_ms", "ms", "lower", 0.25},
	{"result_f1", "ratio", "higher", 0.01},
}

// perLayer lists the traced run's metrics, layer = package name.
var perLayer = []metricDef{
	{"chunkstore.build_s", "s", "lower", 0},
	{"chunkstore.read_chunk_us", "us", "lower", 0},
	{"chunkstore.decode_mb_s", "MB/s", "higher", 0},
	{"chunkstore.merge_cell_ms", "ms", "lower", 0},
	{"chunkstore.fetch_rows_us_per_row", "us/row", "lower", 0},
	{"chunkstore.chunks_read_per_step", "count", "lower", 0},
	{"chunkstore.bytes_read_per_step", "B", "lower", 0},
	{"chunkstore.alloc_kb_per_cell", "KB", "lower", 0},
	{"blockcache.hit_ratio", "ratio", "higher", 0},
	{"blockcache.get_hit_ns", "ns", "lower", 0},
	{"blockcache.evictions", "count", "lower", 0},
	{"blockcache.resident_mb", "MB", "lower", 0},
	{"grid.build_mapping_ms", "ms", "lower", 0},
	{"grid.chunks_per_cell", "count", "lower", 0},
	{"grid.cell_of_ns", "ns", "lower", 0},
	{"kernel.pack_ms", "ms", "lower", 0},
	{"kernel.l2_ns_per_point", "ns", "lower", 0},
	{"kernel.select_kmin_ns_per_point", "ns", "lower", 0},
	{"learn.fit_us", "us", "lower", 0},
	{"learn.block_posterior_ns_per_point", "ns", "lower", 0},
	{"learn.batch_posterior_ns_per_row", "ns", "lower", 0},
	{"learn.allocs_per_batch", "count", "lower", 0},
	{"al.select_us", "us", "lower", 0},
	{"memcache.install_region_us", "us", "lower", 0},
	{"memcache.each_sorted_us", "us", "lower", 0},
	{"memcache.sample_ids_us", "us", "lower", 0},
	{"core.open_ms", "ms", "lower", 0},
	{"core.new_view_ms", "ms", "lower", 0},
	{"core.init_exploration_ms", "ms", "lower", 0},
	{"core.score_ms", "ms", "lower", 0},
	{"core.select_ms", "ms", "lower", 0},
	{"core.load_ms", "ms", "lower", 0},
	{"core.candidates_ms", "ms", "lower", 0},
	{"core.retrieve_ms", "ms", "lower", 0},
	{"core.cells_scored_per_step", "count", "lower", 0},
	{"core.cells_skipped_per_step", "count", "higher", 0},
	{"core.swaps_per_step", "count", "lower", 0},
	{"core.rows_scanned_per_result_row", "count", "lower", 0},
	{"ide.propose_ms", "ms", "lower", 0},
	{"ide.resolve_ms", "ms", "lower", 0},
	{"ide.finish_ms", "ms", "lower", 0},
	{"ide.self_ms", "ms", "lower", 0},
	{"shard.build_s", "s", "lower", 0},
	{"shard.score_all_ms", "ms", "lower", 0},
	{"shard.most_uncertain_ms", "ms", "lower", 0},
	{"shard.load_cell_ms", "ms", "lower", 0},
	{"shard.retrieve_ms", "ms", "lower", 0},
	{"shard.retrieve_skew", "ratio", "lower", 0},
	{"stream.append_us_per_row", "us/row", "lower", 0},
	{"stream.flush_ms", "ms", "lower", 0},
	{"stream.compact_ms", "ms", "lower", 0},
	{"stream.acquire_us", "us", "lower", 0},
	{"stream.wal_bytes_per_row", "B/row", "lower", 0},
	{"stream.segments_at_end", "count", "lower", 0},
	{"stream.reopen_ms", "ms", "lower", 0},
	{"server.create_ms", "ms", "lower", 0},
	{"server.step_inproc_ms", "ms", "lower", 0},
	{"server.handler_ms", "ms", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.resp_bytes_per_step", "B", "lower", 0},
	{"server.result_ms", "ms", "lower", 0},
	{"server.delete_ms", "ms", "lower", 0},
	{"server.alloc_mb_per_step", "MB", "lower", 0},
	{"server.gc_cycles_per_1k_steps", "count", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// metric is a reported value. Samples is how many operations a percentile
// was taken over (0 where that does not apply). A time reported at nominal
// host speed also carries the value as measured and the host slowdown it
// was divided by.
type metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
	Measured float64 `json:"measured,omitempty"`
	Slowdown float64 `json:"slowdown,omitempty"`
}
