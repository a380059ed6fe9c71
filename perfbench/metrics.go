package main

import (
	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// metricDef names one reported metric. moves records, for a per-layer
// metric, which end-to-end metric on which workload it should move, so
// a performance change can state its claim in these names before it is
// measured. BENCHMARK.json lists the same names, units and directions
// (TestBenchmarkJSONMatchesTables keeps the two in step).
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd is what a user of the store sees. Every workload reports
// every one of them in an untraced run.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_us", unit: "us", better: "lower"},
	{name: "latency_p99_us", unit: "us", better: "lower"},
	{name: "vt_throughput_mops", unit: "Mop/s", better: "higher"},
	{name: "write_amp", unit: "x", better: "lower"},
	{name: "space_amp", unit: "x", better: "lower"},
	{name: "heap_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
}

const (
	onServe  = " on serve_upsert"
	onWrites = " on ingest_batch and serve_upsert"
	onAll    = " on every workload"
)

// perLayer comes from the traced run. Layers follow the request path:
// server → cclbtree → core → wal → pmalloc → pmem, with go the Go
// runtime underneath. A metric of a layer a workload does not run
// reads 0 there (server.* on the embedded workloads, for example).
var perLayer = append([]metricDef{
	{"server.avg_batch", "ops", "higher", "throughput_ops_s, latency_p50_us, vt_throughput_mops" + onServe},
	{"server.lane_vt_busy_max_ms", "ms", "lower", "vt_throughput_mops" + onServe},
	{"server.lane_imbalance", "x", "lower", "vt_throughput_mops" + onServe},
	{"server.rejected", "count", "lower", "ok_frac" + onServe},
	{"server.cpu_self_frac", "frac", "lower", "throughput_ops_s" + onServe},
	{"server.put_us_p50", "us", "lower", "latency_p50_us" + onServe},
	{"server.get_us_p50", "us", "lower", "latency_p50_us" + onServe},

	{"cclbtree.put_us_p50", "us", "lower", "latency_p50_us on read_zipf"},
	{"cclbtree.get_us_p50", "us", "lower", "latency_p50_us on read_zipf"},
	{"cclbtree.apply_us_p50", "us", "lower", "latency_p50_us and throughput_ops_s on ingest_batch"},
	{"cclbtree.scan_us_p50", "us", "lower", "latency_p99_us on read_zipf"},
	{"cclbtree.vt_ns_per_op", "ns/op", "lower", "vt_throughput_mops" + onAll},
	{"cclbtree.cpu_self_frac", "frac", "lower", "throughput_ops_s and latency_p99_us on read_zipf"},

	{"core.buffer_hit_rate", "frac", "higher", "latency_p50_us on read_zipf"},
	{"core.read_retries_per_lookup", "1/op", "lower", "latency_p50_us on read_zipf"},
	{"core.trigger_writes_per_op", "1/op", "lower", "write_amp and vt_throughput_mops" + onWrites},
	{"core.logged_writes_per_op", "1/op", "lower", "write_amp and vt_throughput_mops" + onWrites},
	{"core.skipped_logs_per_op", "1/op", "higher", "write_amp" + onWrites},
	{"core.splits", "count", "lower", "write_amp and vt_throughput_mops" + onWrites},
	{"core.gc_runs", "count", "lower", "write_amp and vt_throughput_mops" + onWrites},
	{"core.gc_copied_entries", "count", "lower", "write_amp" + onWrites},
	{"core.batch_relogs", "count", "lower", "write_amp" + onWrites},
	{"core.epoch_reclaims", "count", "higher", "heap_mb" + onWrites},
	{"core.dram_bytes_per_key", "B/key", "lower", "heap_mb" + onAll},
	{"core.cpu_self_frac", "frac", "lower", "throughput_ops_s and latency_p50_us" + onAll},
	{"core.recovery.entries_replayed", "count", "lower", "recover_s" + onAll},
	{"core.recovery.chunks_scanned", "count", "lower", "recover_s" + onAll},
	{"core.recovery.vt_ms", "ms", "lower", "recover_s" + onAll},

	{"wal.media_bytes_per_op", "B/op", "lower", "write_amp and recover_s" + onWrites},
	{"wal.peak_log_mb", "MB", "lower", "recover_s" + onWrites},
	{"wal.cpu_self_frac", "frac", "lower", "throughput_ops_s" + onWrites},

	{"pmalloc.pm_bytes_per_key", "B/key", "lower", "space_amp" + onAll},

	{"pmem.media_write_bytes_per_op", "B/op", "lower", "write_amp on ingest_batch, serve_upsert and read_zipf"},
	{"pmem.xpbuf_write_bytes_per_op", "B/op", "lower", "write_amp" + onWrites},
	{"pmem.cli_amp", "x", "lower", "write_amp" + onWrites},
	{"pmem.xpbuf_write_hit_rate", "frac", "higher", "write_amp" + onWrites},
	{"pmem.media_read_bytes_per_op", "B/op", "lower", "vt_throughput_mops on read_zipf"},
	{"pmem.xpbuf_read_hit_rate", "frac", "higher", "vt_throughput_mops on read_zipf"},
	{"pmem.remote_accesses_per_op", "1/op", "lower", "vt_throughput_mops" + onAll},
	{"pmem.cpu_self_frac", "frac", "lower", "throughput_ops_s, most on ingest_batch and least on read_zipf"},
	{"pmem.alloc_bytes_frac", "frac", "lower", "throughput_ops_s and heap_mb, most on ingest_batch"},

	{"go.allocs_per_op", "1/op", "lower", "latency_p99_us and heap_mb" + onAll},
	{"go.alloc_bytes_per_op", "B/op", "lower", "latency_p99_us and heap_mb" + onAll},
	{"go.gc_cpu_frac", "frac", "lower", "latency_p99_us and throughput_ops_s" + onAll},
	{"go.sched_latency_p99_us", "us", "lower", "throughput_ops_s and latency_p99_us" + onServe},
	{"go.cpu_self_frac", "frac", "lower", "throughput_ops_s" + onServe},

	{"trace.overhead_frac", "frac", "lower", "none: the cost of tracing itself, per workload"},
}, append(scopeMetrics(), vtShareMetrics()...)...)

// mediaScopes are the pmem attribution scopes reported per op.
var mediaScopes = []pmem.Scope{pmem.ScopeLeafBuf, pmem.ScopeWAL, pmem.ScopeGC, pmem.ScopeSplit, pmem.ScopeMeta}

func scopeMetrics() []metricDef {
	var out []metricDef
	for _, s := range mediaScopes {
		out = append(out, metricDef{"pmem.media_write_bytes." + s.String(), "B/op", "lower", "write_amp" + onWrites})
	}
	return out
}

// vtShareMetrics are the virtual-time critical-path shares per op class
// and segment, from DB profiles (Config.Metrics on in the traced run).
func vtShareMetrics() []metricDef {
	var out []metricDef
	for op := obs.OpClass(0); op < obs.NumOpClasses; op++ {
		for seg := obs.Segment(0); seg < obs.NumSegments; seg++ {
			out = append(out, metricDef{vtShareName(op.String(), seg.String()), "frac", "lower", "vt_throughput_mops" + onAll})
		}
	}
	return out
}

func vtShareName(op, seg string) string { return "core.vt_share." + op + "." + seg }
