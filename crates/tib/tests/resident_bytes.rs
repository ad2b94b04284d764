//! Pins what a store holds per record, and that `approx_bytes` — what
//! `store.resident_mb` and `tib_scale` report — says so. The bytes a store
//! holds are counted by the per-thread allocator in `counting_alloc/` (the
//! sizes callers asked for, before the allocator's headers and rounding)
//! while records are drawn and inserted one at a time, so the count is the
//! store's alone: a record's `Path` is either kept by the store or freed by
//! it.
//!
//! Each population is pinned twice: in a flat `Tib` and in a `TieredTib`
//! that seals along the way, the store agents hold. The populations are
//! `insert_allocs`' (one record per flow over 16 five-switch paths, one
//! stime bucket) and the `query_fsd` benchmark's (`fsd_population/`:
//! 24 000 records over a few hundred k = 8 paths, spread over an hour of
//! buckets), the latter also on a k = 16 fat-tree, where a host's flows
//! cross more switches over thousands of distinct paths.

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

/// Held bytes per record of a flat store and of a tiered one sealing every
/// `seal_after` records — the store agents hold — with `approx_bytes`'
/// agreement checked for each.
fn bytes_per_record(
    n: usize,
    seal_after: usize,
    population: impl Fn() -> Box<dyn FnMut() -> TibRecord>,
) -> BytesPerRecord {
    let (flat, held) = built(Tib::new(), n, population(), |t, r| t.insert(r));
    assert_eq!(flat.len(), n);
    assert_reported("Tib", flat.approx_bytes(), held);
    let mut tiered = TieredTib::new();
    tiered.set_seal_after(Some(seal_after));
    let (tiered, tiered_held) = built(tiered, n, population(), |t, r| t.insert(r));
    assert_eq!(tiered.len(), n);
    assert_reported("TieredTib", tiered.approx_bytes(), tiered_held);
    BytesPerRecord {
        flat: held / n,
        tiered: tiered_held / n,
    }
}

/// Held bytes per record of a flat `Tib` and of a sealing `TieredTib`.
#[derive(Debug)]
struct BytesPerRecord {
    flat: usize,
    tiered: usize,
}

impl BytesPerRecord {
    /// Both stores are at or under their pins.
    fn assert_within(&self, what: &str, pin: BytesPerRecord) {
        println!("{what}: {self:?} B/record, pinned at {pin:?}");
        assert!(
            self.flat <= pin.flat && self.tiered <= pin.tiered,
            "{what}: {self:?} B/record, pinned at {pin:?}"
        );
    }
}

/// Held bytes per record of `insert_allocs`' population.
const INSERT_ALLOCS_BYTES_PER_RECORD: BytesPerRecord = BytesPerRecord {
    flat: 290,
    tiered: 278,
};

/// Held bytes per record of the `query_fsd` population (k = 8).
const FSD_BYTES_PER_RECORD: BytesPerRecord = BytesPerRecord {
    flat: 246,
    tiered: 278,
};

/// Held bytes per record of the same generator on a k = 16 fat-tree: more
/// switches and more distinct paths per host.
const FSD_K16_BYTES_PER_RECORD: BytesPerRecord = BytesPerRecord {
    flat: 314,
    tiered: 411,
};

#[test]
fn insert_allocs_population_bytes_per_record() {
    let per = bytes_per_record(20_000, 5_000, || Box::new(insert_allocs_records()));
    per.assert_within("insert_allocs population", INSERT_ALLOCS_BYTES_PER_RECORD);
}

/// 24 000 records of a `k`-ary fat-tree host, sealed every 6 000.
fn fsd_bytes_per_record(k: u16) -> BytesPerRecord {
    bytes_per_record(24_000, 6_000, || {
        let mut pop = FsdPopulation::new(0, 1, k);
        Box::new(move || pop.draw())
    })
}

#[test]
fn fsd_population_bytes_per_record() {
    fsd_bytes_per_record(8).assert_within("query_fsd population", FSD_BYTES_PER_RECORD);
}

#[test]
fn fsd_population_at_k16_bytes_per_record() {
    fsd_bytes_per_record(16)
        .assert_within("query_fsd population, k = 16", FSD_K16_BYTES_PER_RECORD);
}
