//! Trajectory-memory scaling benchmark: the cost of a FIN
//! (`TrajectoryMemory::evict_flow`) and of a hit-path packet
//! (`update_wire`) as the number of live records grows. `bench_gate`
//! prints both per size.
//!
//! A FIN must cost what the flow's own records cost, not what the memory
//! holds: the 64 k / 1 k ratio of `evict_flow` is the machine-independent
//! number `bench_gate` holds under a fixed ceiling (a walk over every live
//! record per FIN, the layout this replaced, scores ≈ 150; what is left
//! above 1 is the larger table's cache misses).
//!
//! Shape: one flow in four is sprayed over four one-tag paths, the rest
//! use one, so both the inline and the multi-path entry forms are
//! measured. FINs are timed in batches of `FIN_BATCH` flows — one clock
//! read per batch — and the batch is re-inserted untimed, so the live
//! count stays within a batch of its nominal size.

use pathdump_tib::TrajectoryMemory;
use pathdump_topology::{FlowId, Ip, Nanos};
use std::hint::black_box;
use std::time::Instant;

/// Live-record counts measured.
pub const LIVE_SIZES: [usize; 3] = [1 << 10, 1 << 13, 1 << 16];

/// Flows evicted per clock read.
const FIN_BATCH: usize = 64;

/// Result of one run at one size.
#[derive(Clone, Copy, Debug)]
pub struct MemoryResult {
    /// Nominal live records while measuring.
    pub live_records: usize,
    pub evict_flow_ns_per_fin: f64,
    pub update_wire_ns_per_pkt: f64,
}

fn flow(i: usize) -> FlowId {
    FlowId::tcp(
        Ip(0x0A00_0000 + (i >> 14) as u32),
        1024 + (i & 0x3FFF) as u16,
        Ip(0x0A63_0002),
        80,
    )
}

/// The one-tag paths flow `i` uses (outermost-first, as the parser
/// leaves them).
fn paths(i: usize) -> impl Iterator<Item = [u16; 1]> {
    let n = if i.is_multiple_of(4) { 4 } else { 1 };
    (0..n).map(move |p| [(i % 61) as u16 + p])
}

fn touch(mem: &mut TrajectoryMemory, i: usize, now: Nanos) {
    for tags in paths(i) {
        black_box(mem.update_wire(&flow(i), None, &tags, 64, now));
    }
}

/// Measures one size: `rounds` passes of FINs over every flow, then
/// `rounds` hit-path passes over every record.
pub fn run_memory(live_records: usize, rounds: usize) -> MemoryResult {
    let mut mem = TrajectoryMemory::default();
    let mut flows = 0;
    while mem.len() < live_records {
        touch(&mut mem, flows, Nanos(1));
        flows += 1;
    }

    let mut evict_ns = 0u128;
    for round in 0..rounds {
        let now = Nanos(2 + round as u64);
        for batch in (0..flows).step_by(FIN_BATCH) {
            let batch = batch..(batch + FIN_BATCH).min(flows);
            let t = Instant::now();
            for i in batch.clone() {
                black_box(mem.evict_flow(&flow(i), now));
            }
            evict_ns += t.elapsed().as_nanos();
            for i in batch {
                touch(&mut mem, i, now);
            }
        }
    }
    assert_eq!(mem.len(), (0..flows).map(|i| paths(i).count()).sum());

    let pkts = mem.len() * rounds;
    let t = Instant::now();
    for round in 0..rounds {
        for i in 0..flows {
            touch(&mut mem, i, Nanos(1_000 + round as u64));
        }
    }
    let update_ns = t.elapsed().as_nanos();

    MemoryResult {
        live_records,
        evict_flow_ns_per_fin: evict_ns as f64 / (flows * rounds) as f64,
        update_wire_ns_per_pkt: update_ns as f64 / pkts as f64,
    }
}

/// One result per entry of [`LIVE_SIZES`]: the run with the cheapest FIN
/// out of `runs`, each sized to touch about a million records. Fastest
/// rather than median because the ratio of two sizes is gated: whatever
/// else the box is doing only ever slows a run, and it need not slow both
/// sizes alike.
pub fn run_memory_curve(runs: usize) -> Vec<MemoryResult> {
    LIVE_SIZES
        .iter()
        .map(|&n| {
            (0..runs.max(1))
                .map(|_| run_memory(n, (1 << 20) / n))
                .min_by(|a, b| a.evict_flow_ns_per_fin.total_cmp(&b.evict_flow_ns_per_fin))
                .expect("at least one run")
        })
        .collect()
}

/// `evict_flow` ns/FIN at the largest measured size over the smallest.
pub fn evict_ratio(curve: &[MemoryResult]) -> f64 {
    match (curve.first(), curve.last()) {
        (Some(lo), Some(hi)) => hi.evict_flow_ns_per_fin / lo.evict_flow_ns_per_fin.max(1e-9),
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_workload_keeps_its_live_count() {
        let r = run_memory(256, 2);
        assert_eq!(r.live_records, 256);
        assert!(r.evict_flow_ns_per_fin > 0.0 && r.update_wire_ns_per_pkt > 0.0);
        let curve = [
            MemoryResult {
                evict_flow_ns_per_fin: 50.0,
                ..r
            },
            MemoryResult {
                evict_flow_ns_per_fin: 75.0,
                ..r
            },
        ];
        assert!((evict_ratio(&curve) - 1.5).abs() < 1e-9);
    }
}
