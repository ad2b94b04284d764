//! The names and units of every metric the benchmark prints. `BENCHMARK.json`
//! lists the same names; `tests/smoke.rs` checks that the two agree.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

pub const WORKLOADS: &[&str] = &["strip_64", "ingest_steady", "query_fsd", "query_topk"];

/// Printed with `--trace 0`, by every workload.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("bytes_per_op", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`, by every workload. A layer the workload does
/// not call reports 0: it spent no time and did no work there.
pub const PER_LAYER: &[Def] = &[
    // dpswitch
    ("dpswitch.parse_ns_per_pkt", "ns"),
    ("dpswitch.vanilla_ns_per_pkt", "ns"),
    ("dpswitch.pathdump_ns_per_pkt", "ns"),
    ("dpswitch.pathdump_over_vanilla", "ratio"),
    ("dpswitch.drop_share", "ratio"),
    ("dpswitch.batch_ns_per_pkt", "ns"),
    ("dpswitch.span_share", "ratio"),
    // tib: trajectory memory
    ("memory.update_ns_per_pkt", "ns"),
    ("memory.evict_flow_us_per_fin", "us"),
    ("memory.live_records", "count"),
    // cherrypick
    ("cherrypick.reconstruct_ns_per_record", "ns"),
    ("cherrypick.cache_hit_share", "ratio"),
    ("cherrypick.memo_hit_share", "ratio"),
    // core: host agent
    ("agent.ingest_ns_per_pkt", "ns"),
    ("agent.records_per_pkt", "ratio"),
    ("agent.recon_failures", "count"),
    ("agent.residual_ns_per_pkt", "ns"),
    // tib: tiered store
    ("store.insert_ns_per_record", "ns"),
    ("store.seal_ms_per_segment", "ms"),
    ("store.evict_cold_ms_per_segment", "ms"),
    ("store.segment_bytes_per_record", "bytes"),
    ("store.resident_mb", "MB"),
    ("store.hot_range_query_ms_p50", "ms"),
    ("store.cold_range_query_ms_p50", "ms"),
    ("store.cold_reloads", "count"),
    ("store.read_failures", "count"),
    // tib: write-ahead log
    ("wal.append_ns_per_record", "ns"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.errors", "count"),
    ("wal.recover_ms_per_100k", "ms"),
    // core: query evaluation and merge
    ("query.exec_ms_per_host", "ms"),
    ("query.merge_us_per_child", "us"),
    // wire
    ("wire.encode_us_per_response", "us"),
    ("wire.decode_us_per_response", "us"),
    ("wire.response_bytes", "bytes"),
    // rpc
    ("rpc.frames_per_query", "count"),
    ("rpc.bytes_per_query", "bytes"),
    ("rpc.virtual_elapsed_ms", "ms"),
    ("rpc.queued_wait_ms", "ms"),
    ("rpc.retries_per_query", "count"),
    ("rpc.hedges_per_query", "count"),
    ("rpc.cache_replies_per_query", "count"),
    ("rpc.residual_ms_per_query", "ms"),
    // the budget table and the recorder itself
    ("budget.rows_over_end_to_end", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Metric values of one run, by name. Setting an unregistered name is a
/// bug in the benchmark, caught at once.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not registered in metrics.rs"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}
