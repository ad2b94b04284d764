//! Tiered-storage scale workload: drives millions of records through a
//! [`TieredTib`] with auto-seal, cold eviction to disk, a WAL over the
//! unflushed tail, and a crash-recovery replay — `bench_gate`'s two
//! `tib_scale` rows and the blocking 10M-record CI gate (`tib_scale`
//! bin).
//!
//! Three measured phases:
//!
//! 1. **Ingest** — inserts with sealing every `seal_every` records and
//!    eviction down to `keep_hot` hot segments (the eviction I/O is part
//!    of the datapath cost of bounded memory, so it is *in* the timed
//!    region). A checkpoint is cut at `records − wal_tail`, after which
//!    a WAL logs every insert — the crash-window shape.
//! 2. **Ranged queries** — `get_flows`/`top_k_flows`/`get_count` over
//!    windows that land on sealed segments, including cold ones (the
//!    lazy reload path is exercised and counted).
//! 3. **Recovery** — `TieredTib::recover(checkpoint, wal)` replaying the
//!    crash artifacts back into a queryable store, verified against the
//!    live one.

use pathdump_tib::{TibRead, TibRecord, TieredTib, VecWal};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use std::time::Instant;

/// Workload shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct TibScaleParams {
    /// Total records ingested.
    pub records: usize,
    /// Distinct flows cycled through the stream.
    pub flows: usize,
    /// Auto-seal threshold (head records per sealed segment).
    pub seal_every: usize,
    /// Hot sealed segments kept resident; older ones go cold on disk.
    pub keep_hot: usize,
    /// Records after the last checkpoint, logged through the WAL.
    pub wal_tail: usize,
    /// Ranged queries in the latency sample.
    pub queries: usize,
}

impl TibScaleParams {
    /// The blocking CI gate shape: 10M records, 1M-record segments.
    pub fn gate_shape() -> Self {
        TibScaleParams {
            records: 10_000_000,
            flows: 4096,
            seal_every: 1_000_000,
            keep_hot: 2,
            wal_tail: 100_000,
            queries: 32,
        }
    }

    /// The smaller 1M-record shape `bench_gate` bounds and prints on
    /// every run.
    pub fn trajectory_shape() -> Self {
        TibScaleParams {
            records: 1_000_000,
            flows: 2048,
            seal_every: 125_000,
            keep_hot: 2,
            wal_tail: 20_000,
            queries: 16,
        }
    }
}

/// Result of one scale run.
#[derive(Clone, Debug)]
pub struct TibScaleResult {
    pub records: usize,
    pub sealed_segments: usize,
    pub cold_segments: usize,
    pub ingest_wall_secs: f64,
    pub ingest_events_per_sec: f64,
    pub checkpoint_wall_ms: f64,
    pub snapshot_bytes: usize,
    /// Mean wall per ranged query over sealed (incl. cold) segments.
    pub query_mean_ms: f64,
    /// Cold-segment reloads the query sample triggered.
    pub cold_reloads: u64,
    pub recovery_wall_ms: f64,
    /// Records the recovery replayed out of the WAL.
    pub wal_replayed: usize,
    /// Resident bytes as ingest left the store (head + hot tail +
    /// cached blocks), before the query phase re-warms cold segments.
    pub resident_bytes: usize,
}

/// Nanoseconds between consecutive record start times: spreads the
/// stream over many buckets/segments so ranged queries prune.
const STIME_STEP: u64 = 10_000;

/// The `i`-th synthetic record: flows cycle with a multiplicative hash
/// (so consecutive records hit different flows), paths rotate over a
/// small pool, stime strictly increases, sizes vary deterministically.
fn record_at(i: usize, flows: usize, pool: &[Path]) -> TibRecord {
    let f = (i as u64).wrapping_mul(2654435761) % flows as u64;
    let stime = Nanos(i as u64 * STIME_STEP);
    TibRecord {
        flow: FlowId::tcp(
            Ip::new(10, (f >> 8) as u8, f as u8, 2),
            1024 + (f % 60000) as u16,
            Ip::new(10, 255, 0, 2),
            80,
        ),
        path: pool[i % pool.len()].clone(),
        stime,
        etime: Nanos(stime.0 + STIME_STEP / 2),
        bytes: 200 + (i as u64 % 97) * 31,
        pkts: 1 + i as u64 % 5,
    }
}

fn path_pool() -> Vec<Path> {
    (0..8u16)
        .map(|i| Path(vec![SwitchId(1 + i), SwitchId(100 + i % 4), SwitchId(200)]))
        .collect()
}

/// Runs the full workload; `dir` (must exist) receives the evicted
/// cold-segment files.
pub fn run_tib_scale(p: TibScaleParams, dir: &std::path::Path) -> TibScaleResult {
    assert!(
        p.wal_tail >= 1 && p.wal_tail <= p.records,
        "wal_tail must cover at least the last record"
    );
    let pool = path_pool();
    let mut store = TieredTib::new();
    store.set_seal_after(Some(p.seal_every.max(1)));

    // Phase 1: ingest. The checkpoint cut and WAL attach happen at the
    // crash-window boundary; the checkpoint itself is timed separately
    // (it is a maintenance op, not datapath).
    let checkpoint_at = p.records - p.wal_tail;
    let mut snapshot = Vec::new();
    let mut checkpoint_wall_ms = 0.0;
    let start = Instant::now();
    for i in 0..p.records {
        if i == checkpoint_at {
            store.attach_wal(Box::new(VecWal::new()));
            let t = Instant::now();
            store.checkpoint(&mut snapshot).expect("checkpoint");
            checkpoint_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        store.insert(record_at(i, p.flows, &pool));
        if store.num_sealed() > p.keep_hot && store.head().is_empty() {
            // Just sealed: push the old tail cold.
            store.evict_cold(p.keep_hot, dir).expect("evict");
        }
    }
    let ingest_wall_secs = start.elapsed().as_secs_f64() - checkpoint_wall_ms / 1e3;
    assert_eq!(store.len(), p.records);
    assert_eq!(store.wal_errors(), 0);
    let wal = store.wal_bytes().expect("wal bytes");
    // Memory-tier shape as ingest left it — the query phase's lazy
    // reloads re-warm segments, so measure before it runs.
    let cold_segments = store.num_cold();
    let resident_bytes = store.approx_bytes();

    // Phase 2: ranged queries over the sealed span (old windows land on
    // cold segments → lazy reload; recent ones on the hot tail).
    let span = p.records as u64 * STIME_STEP;
    let reloads_before = store.cold_reloads();
    let t = Instant::now();
    let mut sink = 0usize;
    for q in 0..p.queries.max(1) {
        let lo = span / 16 * (q as u64 % 13);
        let range = TimeRange::between(Nanos(lo), Nanos(lo + span / 16));
        match q % 3 {
            0 => sink += store.get_flows(LinkPattern::ANY, range).len(),
            1 => sink += store.top_k_flows(8, range).len(),
            _ => {
                let probe = record_at(q * 1009, p.flows, &pool).flow;
                sink += store.get_count(probe, None, range).0 as usize;
            }
        }
    }
    let query_mean_ms = t.elapsed().as_secs_f64() * 1e3 / p.queries.max(1) as f64;
    assert!(sink > 0, "query sample answered nothing");
    let cold_reloads = store.cold_reloads() - reloads_before;

    // Phase 3: crash recovery from the checkpoint + WAL artifacts.
    let t = Instant::now();
    let (recovered, report) = TieredTib::recover(&snapshot, &wal).expect("recover");
    let recovery_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.dropped_tail, 0, "clean shutdown has no torn tail");
    assert_eq!(
        recovered.len(),
        p.records,
        "recovery lost records: snapshot {} + wal {}",
        report.snapshot_records,
        report.wal_records
    );
    assert_eq!(
        recovered.top_k_flows(5, TimeRange::ANY),
        store.top_k_flows(5, TimeRange::ANY),
        "recovered store answers diverged"
    );

    TibScaleResult {
        records: p.records,
        sealed_segments: store.num_sealed(),
        cold_segments,
        ingest_wall_secs,
        ingest_events_per_sec: p.records as f64 / ingest_wall_secs.max(1e-9),
        checkpoint_wall_ms,
        snapshot_bytes: snapshot.len(),
        query_mean_ms,
        cold_reloads,
        recovery_wall_ms,
        wal_replayed: report.wal_records,
        resident_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload's invariants at a miniature shape: every tier is
    /// exercised (seals, cold segments, WAL replay, cold reloads) and
    /// recovery is lossless.
    #[test]
    fn scale_workload_invariants_hold() {
        let dir = std::env::temp_dir().join(format!("pathdump-scale-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let p = TibScaleParams {
            records: 20_000,
            flows: 64,
            seal_every: 4_000,
            keep_hot: 1,
            wal_tail: 3_000,
            queries: 12,
        };
        let r = run_tib_scale(p, &dir);
        assert_eq!(r.records, 20_000);
        assert_eq!(r.sealed_segments, 5);
        assert!(r.cold_segments >= 2, "eviction never went cold: {r:?}");
        assert_eq!(r.wal_replayed, 3_000);
        assert!(r.snapshot_bytes > 0);
        assert!(r.ingest_events_per_sec > 0.0);
        assert!(r.recovery_wall_ms > 0.0);
        assert!(r.resident_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
