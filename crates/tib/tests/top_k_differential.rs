//! Top-k differential gate: `TibRead::top_k_flows` must rank exactly as the
//! body it replaced — kept here, unchanged, as the oracle: collect every
//! flow's total, `select_nth_unstable_by` the k-th by `(bytes, flow)`, then
//! comparison-sort the survivors — over per-flow totals from a linear scan
//! of the raw records with the closed-range overlap test written out.
//!
//! Every case runs on a flat `Tib`, on a `TieredTib` under a generated
//! insert/seal/`evict_cold` interleaving, on the `SealedView` that store
//! publishes and on the `LiveView` of the store plus a live arena, for the
//! all-time query (the running totals) and for ranged ones (the buckets and
//! the segment fold), at bucket widths 1, 64 and the default. `k` is 0, 1,
//! n − 1, n, n + 1 and 10 000, n being the number of flows the query sees.
//!
//! The byte counts lean on what a ranking by digits could get wrong and a
//! comparison sort cannot: dense ties (bytes in 1..8, several records per
//! flow), so that the flow id decides most places; 0, `u64::MAX` and their
//! neighbours; totals that differ only in the second digit, only in the
//! top one or only in the two bits either side of the first digit boundary
//! — each derived from the shipped `TOP_K_DIGIT_BITS` — so that a ranking
//! that skips the digits every key shares must skip exactly those; and
//! three tied levels of one flow each, so that every `k` the gate names
//! cuts through a tie, with tied flows on both sides of the selection's
//! cut (at 12 000 flows, `k` = 10 000 lands among 1 500 tied).
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

use pathdump_tib::{Tib, TibRead, TibRecord, TieredTib, DEFAULT_BUCKET_WIDTH, TOP_K_DIGIT_BITS};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId, TimeRange};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// The oracle: the selection as it shipped before the radix ranking (body
// verbatim), over a linear scan.
// ---------------------------------------------------------------------------

fn old_select_top_k(
    totals: impl IntoIterator<Item = (FlowId, (u64, u64))>,
    k: usize,
) -> Vec<(u64, FlowId)> {
    if k == 0 {
        return Vec::new();
    }
    let mut v: Vec<(u64, FlowId)> = totals.into_iter().map(|(f, t)| (t.0, f)).collect();
    if v.len() > k {
        v.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        v.truncate(k);
    }
    v.sort_unstable_by(|a, b| b.cmp(a));
    v
}

fn scan_totals(raw: &[TibRecord], range: TimeRange) -> HashMap<FlowId, (u64, u64)> {
    let mut out: HashMap<FlowId, (u64, u64)> = HashMap::new();
    for rec in raw {
        let overlaps =
            range.start.is_none_or(|s| rec.etime >= s) && range.end.is_none_or(|e| rec.stime <= e);
        if overlaps {
            let e = out.entry(rec.flow).or_insert((0, 0));
            e.0 += rec.bytes;
            e.1 += rec.pkts;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

/// Distinct ids for distinct `i` below 196 608, in an order that is not
/// `FlowId`'s.
fn flow(i: u32) -> FlowId {
    FlowId::tcp(
        Ip::new(10, 0, 0, 2 + (i % 3) as u8),
        (i / 3) as u16,
        Ip::new(10, 1, 0, 2),
        80,
    )
}

fn path_pool() -> Vec<Path> {
    [&[0u16, 2, 4][..], &[0, 3, 4], &[1, 2, 5], &[1, 3, 5]]
        .iter()
        .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
        .collect()
}

/// How a case draws its byte counts.
#[derive(Clone, Copy, Debug)]
enum Bytes {
    /// 1..8 bytes per record and a dozen flows, so most totals tie.
    DenseTies,
    /// 0, `u64::MAX` and their neighbours, one record per flow.
    Extremes,
    /// Totals that differ only in the second radix digit.
    MidDigit,
    /// Totals that differ only in the highest radix digit, which is partial
    /// unless the digit width divides 64.
    TopDigit,
    /// Any magnitude: a random word shifted right by a random amount.
    Wide,
    /// Totals that differ only in the top bit of the first digit and the
    /// bottom bit of the second.
    Straddle,
    /// Three levels, one flow per record: a low one and the middle one an
    /// eighth of the flows each, a high one the rest. Each level is a tie
    /// the cut at `k` = 1, n − 1 or 10 000 of 12 000 falls inside.
    TieAtCut,
}

const FAMILIES: [Bytes; 7] = [
    Bytes::DenseTies,
    Bytes::Extremes,
    Bytes::MidDigit,
    Bytes::TopDigit,
    Bytes::Wide,
    Bytes::Straddle,
    Bytes::TieAtCut,
];

/// Where the shipped ranking's digits start: `d`, `2d`, … and the last,
/// partial one.
const D: u32 = TOP_K_DIGIT_BITS;
const TOP_SHIFT: u32 = (u64::BITS - 1) / D * D;

/// The flow and byte count of record `i` drawn from `x`. Every family but
/// the dense one gives each record a flow of its own, so that a total is
/// one record's bytes and `u64::MAX` cannot overflow a sum.
fn flow_and_bytes(fam: Bytes, i: usize, x: u64) -> (FlowId, u64) {
    let own = flow(i as u32);
    match fam {
        Bytes::DenseTies => (flow((x % 12) as u32), 1 + (x >> 8) % 7),
        Bytes::Extremes => {
            let v = [0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
            (own, v[(x % v.len() as u64) as usize])
        }
        Bytes::MidDigit => {
            let low = 0x0155 & ((1 << D) - 1);
            (own, low | ((x >> 8) % (1 << D)) << D | (0xAB << (2 * D)))
        }
        Bytes::TopDigit => {
            let low = 0x00C0_FFEE_1234 & ((1 << TOP_SHIFT) - 1);
            (own, low | (x >> TOP_SHIFT) << TOP_SHIFT)
        }
        Bytes::Wide => (own, x >> (x % 64)),
        Bytes::Straddle => (own, 0x0155_0000_0000 | (x % 4) << (D - 1)),
        Bytes::TieAtCut => {
            let at = 0x1234_5678;
            let bytes = match x % 8 {
                0 => at - 1,
                1 => at,
                _ => at + (1 << 30),
            };
            (own, bytes)
        }
    }
}

/// One generated record: path index, t0, duration, entropy for the flow
/// and the bytes.
type RecTuple = (usize, u64, u64, u64);

fn records(fam: Bytes, recs: &[RecTuple]) -> Vec<TibRecord> {
    let pool = path_pool();
    recs.iter()
        .enumerate()
        .map(|(i, &(pidx, t0, dur, x))| {
            let (flow, bytes) = flow_and_bytes(fam, i, x);
            TibRecord {
                flow,
                path: pool[pidx % pool.len()].clone(),
                stime: Nanos(t0 % 120),
                etime: Nanos(t0 % 120 + dur % 50),
                bytes,
                pkts: 1 + x % 7,
            }
        })
        .collect()
}

fn ranges(a: u64, b: u64) -> Vec<TimeRange> {
    let (a, b) = (a % 130, b % 130);
    let (lo, hi) = (Nanos(a.min(b)), Nanos(a.max(b)));
    vec![
        TimeRange::ANY,
        TimeRange::since(lo),
        TimeRange::until(hi),
        TimeRange::between(lo, hi),
    ]
}

/// `top_k_flows` of `tib` against the oracle over `raw`, for every range
/// and every `k` the gate names.
fn check<T: TibRead + ?Sized>(
    engine: &str,
    tib: &T,
    raw: &[TibRecord],
    ranges: &[TimeRange],
) -> Result<(), TestCaseError> {
    for &range in ranges {
        let totals = scan_totals(raw, range);
        let n = totals.len();
        for k in [0, 1, n.saturating_sub(1), n, n + 1, 10_000] {
            let want = old_select_top_k(totals.iter().map(|(&f, &t)| (f, t)), k);
            prop_assert_eq!(
                tib.top_k_flows(k, range),
                want,
                "{} k={} {:?} over {} records",
                engine,
                k,
                range,
                raw.len()
            );
        }
    }
    Ok(())
}

/// Per-case unique eviction directory (proptest cases share a thread).
static EVICT_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn evict_dir() -> std::path::PathBuf {
    let seq = EVICT_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pathdump-topk-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create evict dir");
    dir
}

/// Replays `raw` into a tiered store with the per-record action (`0..=2`
/// plain insert, `3` seal, `4` seal + evict all but the newest segment).
fn tiered(raw: &[TibRecord], acts: &[u8], width: u64, dir: &std::path::Path) -> TieredTib {
    let mut tib = TieredTib::with_bucket_width(Nanos(width));
    for (i, rec) in raw.iter().enumerate() {
        tib.insert(rec.clone());
        match acts.get(i).copied().unwrap_or(0) {
            3 => tib.seal(),
            4 => {
                tib.seal();
                tib.evict_cold(1, dir).expect("evict");
            }
            _ => {}
        }
    }
    tib
}

fn flat(raw: &[TibRecord], width: u64) -> Tib {
    let mut tib = Tib::with_bucket_width(Nanos(width));
    for rec in raw {
        tib.insert(rec.clone());
    }
    tib
}

/// The store takes `raw[..split]` under `acts`, a live arena the rest.
fn check_all_engines(
    raw: &[TibRecord],
    acts: &[u8],
    split: usize,
    width: u64,
    ranges: &[TimeRange],
) -> Result<(), TestCaseError> {
    check("Tib", &flat(raw, width), raw, ranges)?;

    let split = split.min(raw.len());
    let dir = evict_dir();
    let store = tiered(&raw[..split], acts, width, &dir);
    check("TieredTib", &store, &raw[..split], ranges)?;
    prop_assert_eq!(store.read_failures(), 0);

    // The published view: the sealed prefix, none of the head.
    let view = store.reader().snapshot();
    check("SealedView", &*view, &raw[..view.num_records()], ranges)?;

    let live = flat(&raw[split..], width);
    check("LiveView", &store.with_live(&live), raw, ranges)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn top_k_matches_the_old_body(
        recs in proptest::collection::vec((0usize..4, 0u64..120, 0u64..50, any::<u64>()), 0..40),
        fam in 0usize..FAMILIES.len(),
        acts in proptest::collection::vec(0u8..5, 40),
        split in 0usize..48,
        width_sel in 0usize..3,
        qa in 0u64..130,
        qb in 0u64..130,
    ) {
        let width = [1, 64, DEFAULT_BUCKET_WIDTH.0][width_sel];
        let raw = records(FAMILIES[fam], &recs);
        check_all_engines(&raw, &acts, split, width, &ranges(qa, qb))?;
    }
}

/// SplitMix64, so the named cases are the same on every run.
fn entropy(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// The named case of family `FAMILIES[fi]` at `n` records.
fn named_records(fi: usize, n: usize) -> Vec<TibRecord> {
    let xs = entropy(fi as u64 * 1_000 + n as u64, n);
    let recs: Vec<RecTuple> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i, x % 120, x % 50, x))
        .collect();
    records(FAMILIES[fi], &recs)
}

/// Every family spelled out, whatever the generator happens to draw, and
/// at the size of the benchmark's answer: 12 000 flows, so that `k` =
/// 10 000 selects and the ranking sorts thousands of survivors.
#[test]
fn named_cases_match_the_old_body() {
    for (fi, &fam) in FAMILIES.iter().enumerate() {
        for n in [1usize, 2, 17, 40, 12_000] {
            let raw = named_records(fi, n);
            // Seal every `every` records and evict on every third seal:
            // small stores often, the large one into six segments.
            let every = if n > 100 { 2_000 } else { 2 };
            let acts: Vec<u8> = (1..=n)
                .map(|i| match (i % every, i % (3 * every)) {
                    (_, 0) => 4,
                    (0, _) => 3,
                    _ => 0,
                })
                .collect();
            // The large store once, at a width that splits the range's
            // buckets into contained and clamp-scanned ones.
            let widths: &[u64] = if n > 100 {
                &[64]
            } else {
                &[1, 64, DEFAULT_BUCKET_WIDTH.0]
            };
            for &width in widths {
                check_all_engines(&raw, &acts, n * 2 / 3, width, &ranges(30, 90))
                    .unwrap_or_else(|e| panic!("{fam:?} n={n} width={width}: {e:?}"));
            }
        }
    }
}

/// The tie family's large named case does what it is there for: the
/// 9 999th, 10 000th and 10 001st counts are equal, so `k` = 10 000 cuts a
/// tie with tied flows on both sides.
#[test]
fn tie_family_straddles_the_cut() {
    let fi = FAMILIES
        .iter()
        .position(|f| matches!(f, Bytes::TieAtCut))
        .unwrap();
    let totals = scan_totals(&named_records(fi, 12_000), TimeRange::ANY);
    let mut bytes: Vec<u64> = totals.values().map(|t| t.0).collect();
    bytes.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(bytes[9_998], bytes[10_000]);
}
