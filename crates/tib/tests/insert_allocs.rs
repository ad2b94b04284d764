//! Pins what an insert costs the allocator: once a record's own `Path` is
//! built, filing it in the store touches the heap only to grow a column or
//! a posting list — amortised, far below one allocation per record. The
//! store before the flow table made three or more per record (two
//! per-record dedup `Vec`s and a fresh posting `Vec` for every new flow).
//!
//! Counted with the per-thread allocator in `counting_alloc/`.

mod counting_alloc;

use counting_alloc::thread_alloc_count;
use pathdump_tib::{Tib, TibRecord, TieredTib};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId};

const RECORDS: usize = 20_000;

/// One record every 20 µs, `ingest_steady`'s rate: one stime bucket.
const SPACING: u64 = 20_000;

/// One record per flow over 16 five-switch paths: into one ToR of a k=4
/// fat-tree from the four ToRs of two other pods (2 aggregation choices ×
/// 2 cores each) — 15 switches, 22 links. What is left to allocate is the
/// growth of some hundred lists; on the 16 paths between one ToR pair at
/// k=8 (26 switches, 40 links) the same inserts come to 2 021.
fn records() -> Vec<TibRecord> {
    let paths: Vec<Path> = (0..16u16)
        .map(|i| {
            let (tor, agg, core) = (i / 4, i / 2 % 2, i % 2);
            let ids = [tor, 8 + tor / 2 * 2 + agg, 16 + 2 * agg + core, 14 + agg, 6];
            Path::new(ids.into_iter().map(SwitchId).collect())
        })
        .collect();
    (0..RECORDS)
        .map(|i| TibRecord {
            flow: FlowId::tcp(Ip(0x0A00_0002), i as u16, Ip(0x0A63_0002), 80),
            path: paths[i % paths.len()].clone(),
            stime: Nanos(i as u64 * SPACING),
            etime: Nanos(i as u64 * SPACING + 5_000_000),
            bytes: 1500,
            pkts: 1,
        })
        .collect()
}

/// Allocations made on this thread while `insert` takes every record.
fn allocs_during(recs: Vec<TibRecord>, mut insert: impl FnMut(TibRecord)) -> u64 {
    let before = thread_alloc_count();
    recs.into_iter().for_each(&mut insert);
    thread_alloc_count() - before
}

#[test]
fn inserts_allocate_less_than_once_per_ten_records() {
    let limit = RECORDS as u64 / 10;

    let mut flat = Tib::new();
    let n = allocs_during(records(), |r| flat.insert(r));
    assert_eq!(flat.len(), RECORDS);
    assert!(
        n < limit,
        "Tib::insert: {n} allocations for {RECORDS} records (limit {limit})"
    );

    let mut tiered = TieredTib::new();
    let n = allocs_during(records(), |r| tiered.insert(r));
    assert_eq!(tiered.len(), RECORDS);
    assert!(
        n < limit,
        "TieredTib::insert: {n} allocations for {RECORDS} records (limit {limit})"
    );
}
