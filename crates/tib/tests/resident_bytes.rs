//! Pins what a store holds per record, and that `approx_bytes` — what
//! `store.resident_mb` and `tib_scale` report — says so. The bytes a store
//! holds are counted by the per-thread allocator in `counting_alloc/` (the
//! sizes callers asked for, before the allocator's headers and rounding)
//! while records are drawn and inserted one at a time, so the count is the
//! store's alone: a record's `Path` is either kept by the store or freed by
//! it.
//!
//! Two populations: `insert_allocs`' (one record per flow over 16
//! five-switch paths, one stime bucket) and the `query_fsd` benchmark's
//! (`fsd_population/`: 24 000 records over a few hundred k = 8 paths,
//! spread over an hour of buckets).

mod counting_alloc;
mod fsd_population;

use counting_alloc::thread_live_bytes;
use fsd_population::FsdPopulation;
use pathdump_tib::{Tib, TibRecord, TieredTib};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId};

/// `insert_allocs`' population: 20 000 records, one every 20 µs.
fn insert_allocs_records() -> impl FnMut() -> TibRecord {
    let paths: Vec<Path> = (0..16u16)
        .map(|i| {
            let (tor, agg, core) = (i / 4, i / 2 % 2, i % 2);
            let ids = [tor, 8 + tor / 2 * 2 + agg, 16 + 2 * agg + core, 14 + agg, 6];
            Path::new(ids.into_iter().map(SwitchId).collect())
        })
        .collect();
    let mut i = 0usize;
    move || {
        let rec = TibRecord {
            flow: FlowId::tcp(Ip(0x0A00_0002), i as u16, Ip(0x0A63_0002), 80),
            path: paths[i % paths.len()].clone(),
            stime: Nanos(i as u64 * 20_000),
            etime: Nanos(i as u64 * 20_000 + 5_000_000),
            bytes: 1500,
            pkts: 1,
        };
        i += 1;
        rec
    }
}

/// A store of `n` records from `next`, and the heap bytes it holds.
fn built<S>(
    mut store: S,
    n: usize,
    mut next: impl FnMut() -> TibRecord,
    insert: impl Fn(&mut S, TibRecord),
) -> (S, usize) {
    let before = thread_live_bytes();
    for _ in 0..n {
        insert(&mut store, next());
    }
    (store, (thread_live_bytes() - before) as usize)
}

/// `approx_bytes` must be within 5 % of what the allocator handed out.
fn assert_reported(what: &str, reported: usize, held: usize) {
    let ratio = reported as f64 / held as f64;
    println!("{what}: approx_bytes {reported} B, {held} B held ({ratio:.3})");
    assert!(
        (0.95..=1.05).contains(&ratio),
        "{what}: approx_bytes {reported} B against {held} B held ({ratio:.3})"
    );
}

/// Held bytes per record, and `approx_bytes`' agreement, for a flat store
/// and a tiered one sealing every `seal_after` records.
fn bytes_per_record(
    n: usize,
    seal_after: usize,
    population: impl Fn() -> Box<dyn FnMut() -> TibRecord>,
) -> usize {
    let (flat, held) = built(Tib::new(), n, population(), |t, r| t.insert(r));
    assert_eq!(flat.len(), n);
    assert_reported("Tib", flat.approx_bytes(), held);
    let mut tiered = TieredTib::new();
    tiered.set_seal_after(Some(seal_after));
    let (tiered, tiered_held) = built(tiered, n, population(), |t, r| t.insert(r));
    assert_eq!(tiered.len(), n);
    assert_reported("TieredTib", tiered.approx_bytes(), tiered_held);
    held / n
}

/// Held bytes per record of `insert_allocs`' population.
const INSERT_ALLOCS_BYTES_PER_RECORD: usize = 362;

/// Held bytes per record of the `query_fsd` population.
const FSD_BYTES_PER_RECORD: usize = 331;

#[test]
fn insert_allocs_population_bytes_per_record() {
    let per = bytes_per_record(20_000, 5_000, || Box::new(insert_allocs_records()));
    println!("insert_allocs population: {per} B/record");
    assert!(
        per <= INSERT_ALLOCS_BYTES_PER_RECORD,
        "{per} B/record, pinned at {INSERT_ALLOCS_BYTES_PER_RECORD}"
    );
}

#[test]
fn fsd_population_bytes_per_record() {
    let per = bytes_per_record(24_000, 6_000, || {
        let mut pop = FsdPopulation::new(0, 1);
        Box::new(move || pop.draw())
    });
    println!("query_fsd population: {per} B/record");
    assert!(
        per <= FSD_BYTES_PER_RECORD,
        "{per} B/record, pinned at {FSD_BYTES_PER_RECORD}"
    );
}
