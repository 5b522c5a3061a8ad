package main

// metric is one reported number; BENCHMARK.json gives the same names
// and units. moves names, for a per-layer metric, the end-to-end metric
// and workloads it should move; the traced run prints it beside the
// value.
type metric struct {
	name, unit, moves string
}

// endToEnd are the numbers a user of the platform sees, measured with no
// benchmark wrappers in the pipeline. A workload that does not exercise
// a metric's subject measures its nearest analogue (see README.md).
var endToEnd = []metric{
	{name: "ingest_rows_per_s", unit: "rows/s"},
	{name: "sealed_rows_per_s", unit: "rows/s"},
	{name: "cycle_p50_ms", unit: "ms"},
	{name: "cycle_p99_ms", unit: "ms"},
	{name: "figure_render_p50_ms", unit: "ms"},
	{name: "cold_scan_s", unit: "s"},
	{name: "alloc_bytes_per_row", unit: "B/row"},
	{name: "retained_heap_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

const (
	movesIngest  = "ingest_rows_per_s, cycle_p50_ms on single-durable, cluster3-r2"
	movesCycle   = "cycle_p50_ms, cycle_p99_ms on single-durable, cluster3-r2"
	movesWire    = "ingest_rows_per_s, alloc_bytes_per_row on single-durable, cluster3-r2"
	movesFront   = "ingest_rows_per_s, cycle_p50_ms on cluster3-r2 only"
	movesStore   = "ingest_rows_per_s on single-durable, cluster3-r2"
	movesSeal    = "sealed_rows_per_s, cold_scan_s on single-durable"
	movesFigures = "figure_render_p50_ms, cold_scan_s, retained_heap_mb on single-durable"
	movesNone    = "none (UDP loss is tracked here, not in failed uploads)"
	movesProc    = "cycle_p99_ms, alloc_bytes_per_row on all workloads"
	movesLedger  = "none (ledger bookkeeping)"
)

// perLayer is the traced run's ledger, named after the modules.
var perLayer = []metric{
	{"client.export_us_p50", "us", movesIngest},
	{"spool.items_per_batch", "items", movesIngest},
	{"spool.idle_ms_p50", "ms", movesIngest},

	{"http.requests", "count", movesCycle},
	{"http.conn_wait_ms_p50", "ms", movesCycle},
	{"http.rtt_ms_p50", "ms", movesCycle},
	{"http.rtt_ms_p99", "ms", movesCycle},
	{"http.req_bytes_per_row", "B/row", movesCycle},
	{"http.non2xx_frac", "ratio", movesCycle},

	{"wire.decode_ns_per_row", "ns/row", movesWire},
	{"wire.decode_allocs_per_row", "allocs/row", movesWire},
	{"wire.encode_ns_per_row", "ns/row", movesWire},
	{"wire.bytes_per_row", "B/row", movesWire},

	{"front.rtt_ms_p50", "ms", movesFront},
	{"node.direct_rtt_ms_p50", "ms", movesFront},
	{"front.overhead_ratio", "ratio", movesFront},
	{"front.allocs_per_batch", "allocs", movesFront},
	{"journal.frames", "count", movesFront},
	{"journal.bytes_per_row", "B/row", movesFront},

	{"store.apply_us_p50", "us", movesStore},
	{"store.apply_us_p99", "us", movesStore},
	{"store.applies", "count", movesStore},
	{"store.dup_frac", "ratio", movesStore},
	{"store.busy_frac", "ratio", movesStore},

	{"segment.seals", "count", movesSeal},
	{"segment.rows_per_seal", "rows", movesSeal},
	{"segment.compactions", "count", movesSeal},
	{"segment.files_end", "count", movesSeal},
	{"segment.bytes_per_row", "B/row", movesSeal},
	{"segment.open_ms", "ms", movesSeal},
	{"segment.merge_ms", "ms", movesSeal},

	{"figures.all_ms", "ms", movesFigures},
	{"figures.dashboard_open_ms", "ms", movesFigures},
	{"analysis.partial_raw_flow_rows", "rows", movesFigures},
	{"analysis.partial_flow_aggregates", "count", movesFigures},

	{"heartbeat.sent", "count", movesNone},
	{"heartbeat.recorded_frac", "ratio", movesNone},
	{"heartbeat.send_us_p50", "us", movesNone},

	{"proc.cpu_us_per_row", "us/row", movesProc},
	{"proc.gc_cycles", "count", movesProc},
	{"proc.gc_pause_ms", "ms", movesProc},
	{"trace.overhead_frac", "ratio", movesProc},

	{"ledger.unattributed_frac", "ratio", movesLedger},
	{"ledger.closure_err_frac", "ratio", movesLedger},
}

func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
