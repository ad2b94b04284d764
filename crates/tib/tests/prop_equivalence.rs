//! Query-engine equivalence: the bucketed/aggregate [`Tib`] — and the
//! tiered [`TieredTib`] under arbitrary insert/seal/evict interleavings,
//! alone and with a live arena read behind it through
//! [`TieredTib::with_live`] — must answer every Host API query identically to a naive linear scan
//! over the raw records, for arbitrary record sets, time ranges, link
//! patterns, and bucket widths (so bucket-boundary and lookback paths
//! are exercised).
//!
//! Inputs are kept deliberately small: the vendored proptest stub does
//! not shrink failures.

use pathdump_tib::{Tib, TibRead, TibRecord, TieredTib, VecWal};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn flow(sport: u16) -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
}

/// A small pool of paths over switches 0..=5, including a loopy one
/// (routing-loop scenarios) that repeats a link and a switch.
fn path_pool() -> Vec<Path> {
    [
        &[0u16, 2, 4][..],
        &[0, 3, 4],
        &[1, 2, 5],
        &[1, 3, 5],
        &[0, 2, 0, 2, 4], // loop: repeats link 0->2 and switches 0, 2
    ]
    .iter()
    .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
    .collect()
}

/// One generated record: (sport, path index, t0, duration, bytes).
type RecTuple = (u16, usize, u64, u64, u64);

fn build(recs: &[RecTuple], width: u64) -> (Tib, Vec<TibRecord>) {
    let pool = path_pool();
    let mut tib = Tib::with_bucket_width(Nanos(width));
    let mut raw = Vec::new();
    for &(sport, pidx, t0, dur, bytes) in recs {
        let rec = TibRecord {
            flow: flow(1 + sport % 4),
            path: pool[pidx % pool.len()].clone(),
            stime: Nanos(t0 % 120),
            etime: Nanos(t0 % 120 + dur % 50),
            bytes: 1 + bytes % 1000,
            pkts: 1 + bytes % 7,
        };
        tib.insert(rec.clone());
        raw.push(rec);
    }
    (tib, raw)
}

/// The queries under test, over every interesting pattern/range combo.
fn patterns() -> Vec<LinkPattern> {
    let mut v = vec![LinkPattern::ANY];
    for s in 0..6 {
        v.push(LinkPattern::into(SwitchId(s)));
        v.push(LinkPattern::out_of(SwitchId(s)));
    }
    for (f, t) in [(0, 2), (2, 4), (1, 3), (3, 5), (4, 0)] {
        v.push(LinkPattern::exact(SwitchId(f), SwitchId(t)));
    }
    v
}

fn ranges(a: u64, b: u64) -> Vec<TimeRange> {
    let (a, b) = (a % 130, b % 130);
    let (lo, hi) = (a.min(b), a.max(b) + 1);
    vec![
        TimeRange::ANY,
        TimeRange::since(Nanos(lo)),
        TimeRange::until(Nanos(hi)),
        TimeRange::between(Nanos(lo), Nanos(hi)),
    ]
}

// --- naive linear-scan reference implementations ---

fn rec_matches(rec: &TibRecord, link: LinkPattern) -> bool {
    link.is_any() || rec.path.links().any(|l| link.matches(l))
}

fn ref_get_flows(raw: &[TibRecord], link: LinkPattern, range: TimeRange) -> Vec<FlowId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for rec in raw {
        if rec.overlaps(&range) && rec_matches(rec, link) && seen.insert(rec.flow) {
            out.push(rec.flow);
        }
    }
    out
}

fn ref_counts(
    raw: &[TibRecord],
    link: LinkPattern,
    range: TimeRange,
) -> HashMap<FlowId, (u64, u64)> {
    let mut out: HashMap<FlowId, (u64, u64)> = HashMap::new();
    for rec in raw {
        if rec.overlaps(&range) && rec_matches(rec, link) {
            let e = out.entry(rec.flow).or_insert((0, 0));
            e.0 += rec.bytes;
            e.1 += rec.pkts;
        }
    }
    out
}

fn ref_get_paths(raw: &[TibRecord], f: FlowId, link: LinkPattern, range: TimeRange) -> Vec<Path> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for rec in raw {
        if rec.flow == f
            && rec.overlaps(&range)
            && rec_matches(rec, link)
            && seen.insert(rec.path.clone())
        {
            out.push(rec.path.clone());
        }
    }
    out
}

fn ref_get_count(raw: &[TibRecord], f: FlowId, range: TimeRange) -> (u64, u64) {
    let mut acc = (0, 0);
    for rec in raw.iter().filter(|r| r.flow == f && r.overlaps(&range)) {
        acc.0 += rec.bytes;
        acc.1 += rec.pkts;
    }
    acc
}

fn ref_get_duration(raw: &[TibRecord], f: FlowId, range: TimeRange) -> Nanos {
    let mut lo = Nanos::MAX;
    let mut hi = Nanos::ZERO;
    for rec in raw.iter().filter(|r| r.flow == f && r.overlaps(&range)) {
        let (s, e) = range.clamp(rec.stime, rec.etime).unwrap();
        lo = lo.min(s);
        hi = hi.max(e);
    }
    if lo >= hi {
        Nanos::ZERO
    } else {
        hi - lo
    }
}

fn ref_top_k(raw: &[TibRecord], k: usize, range: TimeRange) -> Vec<(u64, FlowId)> {
    let mut v: Vec<(u64, FlowId)> = ref_counts(raw, LinkPattern::ANY, range)
        .into_iter()
        .map(|(f, (b, _))| (b, f))
        .collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v.truncate(k);
    v
}

/// Boundary-interesting offsets within a bucket of width `w`: the first
/// stime of a bucket, one past it, the last stime of the bucket, and the
/// middle. Deduplicated so `w = 1` collapses to `{0}`.
fn boundary_offsets(w: u64) -> Vec<u64> {
    let mut v = vec![0, 1 % w, w - 1, w / 2];
    v.sort_unstable();
    v.dedup();
    v
}

/// Builds records whose stimes/etimes land exactly on bucket-width
/// multiples (and one off either side): the inputs the uniform generator
/// above almost never produces for widths > a few ns.
fn build_aligned(
    recs: &[(u16, usize, u64, usize, u64, usize, u64)],
    width: u64,
) -> (Tib, Vec<TibRecord>) {
    let pool = path_pool();
    let offs = boundary_offsets(width);
    let mut tib = Tib::with_bucket_width(Nanos(width));
    let mut raw = Vec::new();
    for &(sport, pidx, sbucket, soff, dbuckets, doff, bytes) in recs {
        let stime = sbucket * width + offs[soff % offs.len()];
        // Durations of whole buckets plus a boundary offset, including
        // zero-duration records (stime == etime).
        let etime = stime + dbuckets * width + offs[doff % offs.len()];
        let rec = TibRecord {
            flow: flow(1 + sport % 4),
            path: pool[pidx % pool.len()].clone(),
            stime: Nanos(stime),
            etime: Nanos(etime),
            bytes: 1 + bytes % 1000,
            pkts: 1 + bytes % 7,
        };
        tib.insert(rec.clone());
        raw.push(rec);
    }
    (tib, raw)
}

/// Ranges whose endpoints sit exactly on bucket edges (and one off either
/// side), plus ranges pinned to the exact stime/etime of a stored record —
/// the `TimeRange`-endpoint cases called out by the half-open-bucket /
/// closed-range convention documented in `tib.rs`.
fn aligned_ranges(
    (ab, ao): (u64, usize),
    (bb, bo): (u64, usize),
    width: u64,
    raw: &[TibRecord],
) -> Vec<TimeRange> {
    let offs = boundary_offsets(width);
    let x = ab * width + offs[ao % offs.len()];
    let y = bb * width + offs[bo % offs.len()];
    let (lo, hi) = (x.min(y), x.max(y));
    let mut v = vec![
        TimeRange::ANY,
        TimeRange::since(Nanos(lo)),
        TimeRange::until(Nanos(hi)),
        TimeRange::between(Nanos(lo), Nanos(hi)),
        TimeRange::between(Nanos(lo), Nanos(lo)),
    ];
    if let Some(rec) = raw.first() {
        v.push(TimeRange::between(rec.stime, rec.etime));
        v.push(TimeRange::between(rec.etime, rec.etime));
        v.push(TimeRange::since(rec.etime));
        if rec.stime > Nanos::ZERO {
            // Ends exactly one below the record's start: must exclude it.
            v.push(TimeRange::until(Nanos(rec.stime.0 - 1)));
        }
    }
    v
}

fn assert_all_queries_match<T: TibRead>(
    tib: &T,
    raw: &[TibRecord],
    range: TimeRange,
    k: usize,
    width: u64,
) -> Result<(), TestCaseError> {
    let flows: Vec<FlowId> = (1..=4).map(flow).collect();
    assert_queries_match(tib, raw, range, k, width, &patterns(), &flows)
}

/// Every Host API query of `tib` against the linear scan of `raw`, over
/// the given link patterns and flows.
fn assert_queries_match<T: TibRead>(
    tib: &T,
    raw: &[TibRecord],
    range: TimeRange,
    k: usize,
    width: u64,
    links: &[LinkPattern],
    flows: &[FlowId],
) -> Result<(), TestCaseError> {
    for &link in links {
        prop_assert_eq!(
            tib.get_flows(link, range),
            ref_get_flows(raw, link, range),
            "get_flows({:?}, {:?}) width={}",
            link,
            range,
            width
        );
        prop_assert_eq!(
            tib.link_flow_counts(link, range),
            ref_counts(raw, link, range),
            "link_flow_counts({:?}, {:?}) width={}",
            link,
            range,
            width
        );
        let mut folded: HashMap<FlowId, (u64, u64)> = HashMap::new();
        tib.for_each_flow_count(link, range, &mut |f, bytes, pkts| {
            let e = folded.entry(f).or_insert((0, 0));
            e.0 += bytes;
            e.1 += pkts;
        });
        prop_assert_eq!(
            folded,
            tib.link_flow_counts(link, range),
            "fold of for_each_flow_count({:?}, {:?}) width={}",
            link,
            range,
            width
        );
    }
    for &f in flows {
        prop_assert_eq!(
            tib.get_count(f, None, range),
            ref_get_count(raw, f, range),
            "get_count({:?}) width={}",
            range,
            width
        );
        prop_assert_eq!(
            tib.get_duration(f, None, range),
            ref_get_duration(raw, f, range),
            "get_duration({:?}) width={}",
            range,
            width
        );
        prop_assert_eq!(
            tib.get_paths(f, LinkPattern::ANY, range),
            ref_get_paths(raw, f, LinkPattern::ANY, range),
            "get_paths({:?}) width={}",
            range,
            width
        );
    }
    prop_assert_eq!(
        tib.top_k_flows(k, range),
        ref_top_k(raw, k, range),
        "top_k({}, {:?}) width={}",
        k,
        range,
        width
    );
    Ok(())
}

// --- the wide population: many flows, sparse switch ids ---

/// Distinct flows the wide generator can draw: more than two 64-bit words
/// of a per-flow bitmap.
const WIDE_FLOWS: usize = 139;

/// Paths over switch ids with gaps, up to `SwitchId(u16::MAX)` — a store
/// that indexes switches densely has holes and a last slot to get right —
/// plus a 0-switch and a 1-switch path (no links: only the flow and
/// all-links queries see their records) and the loopy path.
fn wide_pool() -> Vec<Path> {
    [
        &[0u16, 2, 4][..],
        &[0, 3, 4],
        &[1, 3, 5],
        &[0, 700, u16::MAX],
        &[u16::MAX, 9, 0],
        &[40_000, 3],
        &[],
        &[5],
        &[0, 2, 0, 2, 4],
    ]
    .iter()
    .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
    .collect()
}

/// Patterns over every switch of [`wide_pool`], and over ids no path has:
/// a gap inside the populated span, the slot below the last, an exact link
/// nothing traverses.
fn wide_patterns() -> Vec<LinkPattern> {
    const ABSENT: [u16; 2] = [300, u16::MAX - 1];
    let mut v = vec![LinkPattern::ANY];
    for s in [0, 1, 2, 3, 4, 5, 9, 700, 40_000, u16::MAX]
        .into_iter()
        .chain(ABSENT)
    {
        v.push(LinkPattern::into(SwitchId(s)));
        v.push(LinkPattern::out_of(SwitchId(s)));
    }
    for (f, t) in [
        (0, 2),
        (3, 4),
        (0, 700),
        (700, u16::MAX),
        (u16::MAX, 9),
        (40_000, 3),
        (3, 40_000),
        (4, 0),
    ] {
        v.push(LinkPattern::exact(SwitchId(f), SwitchId(t)));
    }
    v
}

fn wide_flows() -> Vec<FlowId> {
    (1..=WIDE_FLOWS as u16 + 1).map(flow).collect()
}

/// At least 130 distinct flows from 200 or more tuples. The first three
/// records are fixed: flow 1, then flow 2 through switch 3, then flow 1 on
/// a second path that enters switch 3 — so switch 3 lists flow 2 *before*
/// flow 1 while the store lists flow 1 first. After them two records in
/// three bring the next flow of a scrambled sequence (89 is coprime to
/// 139, so the sequence repeats no flow) and the third revisits a drawn one.
fn wide_records(recs: &[RecTuple]) -> Vec<TibRecord> {
    let pool = wide_pool();
    let mut fresh = 0usize;
    let mut out = Vec::with_capacity(recs.len());
    for (i, &(sport, pidx, t0, dur, bytes)) in recs.iter().enumerate() {
        let (fnum, pidx) = match i {
            0 => (1, 0),
            1 => (2, 2),
            2 => (1, 1),
            _ if i % 3 == 2 => (1 + sport as usize % WIDE_FLOWS, pidx),
            _ => {
                fresh += 1;
                (1 + fresh * 89 % WIDE_FLOWS, pidx)
            }
        };
        out.push(TibRecord {
            flow: flow(fnum as u16),
            path: pool[pidx % pool.len()].clone(),
            stime: Nanos(t0 % 120),
            etime: Nanos(t0 % 120 + dur % 50),
            bytes: 1 + bytes % 1000,
            pkts: 1 + bytes % 7,
        });
    }
    out
}

/// Replays `raw` into a tiered store; `acts` as in [`tiered_build`], drawn
/// from a wider range so that seals stay few (every segment that met
/// `SwitchId(u16::MAX)` carries a full-width switch table).
fn wide_tiered(raw: &[TibRecord], acts: &[u8], width: u64, dir: &std::path::Path) -> TieredTib {
    let mut tib = TieredTib::with_bucket_width(Nanos(width));
    for (i, rec) in raw.iter().enumerate() {
        tib.insert(rec.clone());
        act(&mut tib, acts.get(i).copied().unwrap_or(0), dir);
    }
    tib
}

/// Per-case unique eviction directory (proptest cases share a thread).
static EVICT_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn evict_dir() -> std::path::PathBuf {
    let seq = EVICT_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pathdump-prop-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create evict dir");
    dir
}

/// Replays `recs` into a tiered store, applying the per-record action
/// (`0..=2` plain insert, `3` seal, `4` seal + evict all-but-one cold):
/// the arbitrary insert/seal/evict interleaving under test.
fn tiered_build(
    recs: &[RecTuple],
    acts: &[u8],
    width: u64,
    dir: &std::path::Path,
) -> (TieredTib, Vec<TibRecord>) {
    let pool = path_pool();
    let mut tib = TieredTib::with_bucket_width(Nanos(width));
    tib.attach_wal(Box::new(VecWal::new()));
    let mut raw = Vec::new();
    for (i, &(sport, pidx, t0, dur, bytes)) in recs.iter().enumerate() {
        let rec = TibRecord {
            flow: flow(1 + sport % 4),
            path: pool[pidx % pool.len()].clone(),
            stime: Nanos(t0 % 120),
            etime: Nanos(t0 % 120 + dur % 50),
            bytes: 1 + bytes % 1000,
            pkts: 1 + bytes % 7,
        };
        tib.insert(rec.clone());
        raw.push(rec);
        act(&mut tib, acts.get(i).copied().unwrap_or(0), dir);
    }
    (tib, raw)
}

/// One step of the interleaving: `3` seals, `4` seals and evicts
/// all-but-one segment cold, anything else leaves the store alone.
fn act(tib: &mut TieredTib, action: u8, dir: &std::path::Path) {
    if action == 3 || action == 4 {
        tib.seal();
    }
    if action == 4 {
        tib.evict_cold(1, dir).expect("evict");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucketed_engine_matches_linear_scan(
        recs in proptest::collection::vec(
            (0u16..6, 0usize..5, 0u64..140, 0u64..60, 0u64..2000), 0..25),
        width in 1u64..200,
        a in 0u64..140,
        b in 0u64..140,
        k in 0usize..8,
    ) {
        let (tib, raw) = build(&recs, width);
        for range in ranges(a, b) {
            assert_all_queries_match(&tib, &raw, range, k, width)?;
        }
    }

    /// The uniform generator above almost never lands a record or a range
    /// endpoint exactly on a bucket-width multiple once widths grow past a
    /// few ns. This case targets the boundary paths directly: records with
    /// stime/etime at exact `k·width` multiples (± 1), ranges whose
    /// endpoints sit on bucket edges or on a record's exact stime/etime,
    /// and zero-duration records — pinning the half-open bucket span
    /// `[k·w, (k+1)·w)` against the closed `TimeRange` convention.
    #[test]
    fn boundary_aligned_engine_matches_linear_scan(
        recs in proptest::collection::vec(
            (0u16..6, 0usize..5, 0u64..5, 0usize..4, 0u64..3, 0usize..4, 0u64..2000), 0..20),
        width_sel in 0usize..5,
        qa in (0u64..6, 0usize..4),
        qb in (0u64..6, 0usize..4),
        k in 0usize..8,
    ) {
        let width = [1u64, 2, 7, 32, 100][width_sel];
        let (tib, raw) = build_aligned(&recs, width);
        for range in aligned_ranges(qa, qb, width, &raw) {
            assert_all_queries_match(&tib, &raw, range, k, width)?;
        }
    }

    /// The tiered engine under arbitrary insert/seal/evict/query
    /// interleavings: queried mid-build (against the raw prefix — sealed
    /// and cold segments answering alongside a part-filled head), at the
    /// end, and mid-build with the remaining records as a live tier, it
    /// must be bit-identical to the linear-scan reference.
    /// Recovery equivalence (kill + snapshot/WAL replay) lives in
    /// `crash_recovery.rs`.
    #[test]
    fn tiered_engine_matches_linear_scan(
        recs in proptest::collection::vec(
            (0u16..6, 0usize..5, 0u64..140, 0u64..60, 0u64..2000), 0..25),
        acts in proptest::collection::vec(0u8..5, 25),
        width in 1u64..200,
        a in 0u64..140,
        b in 0u64..140,
        k in 0usize..8,
    ) {
        let dir = evict_dir();
        // Mid-build: stop at an action-derived prefix and query there.
        let mid = if recs.is_empty() { 0 } else { (a as usize) % recs.len() + 1 };
        let (tib_mid, raw_mid) = tiered_build(&recs[..mid], &acts, width, &dir);
        for range in ranges(a, b) {
            assert_all_queries_match(&tib_mid, &raw_mid, range, k, width)?;
        }
        // Full build (fresh store so eviction files don't collide).
        let dir2 = evict_dir();
        let (tib, raw) = tiered_build(&recs, &acts, width, &dir2);
        prop_assert_eq!(tib.records_vec(), raw.clone(), "insertion order");
        prop_assert_eq!(tib.len(), raw.len());
        for range in ranges(a, b) {
            assert_all_queries_match(&tib, &raw, range, k, width)?;
        }
        prop_assert_eq!(tib.read_failures(), 0);
        // The mid-build store with the rest of the records read as a live
        // tier behind its head: the union, in insertion order.
        let mut live = Tib::with_bucket_width(Nanos(width));
        raw[mid..].iter().for_each(|r| live.insert(r.clone()));
        let view = tib_mid.with_live(&live);
        prop_assert_eq!(view.records_vec(), raw.clone(), "live insertion order");
        for range in ranges(a, b) {
            assert_all_queries_match(&view, &raw, range, k, width)?;
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}

proptest! {
    // Few cases: each builds four stores of 200+ records and scans the
    // reference once per query, flow and pattern.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cases above draw 4 flows over switches 0–5: a flow index never
    /// leaves the first word of a bitmap and a table indexed by switch id
    /// has no hole. This one runs the wide population (see
    /// [`wide_records`]) through the flat engine, the tiered engine under
    /// seal / evict — mid-build and complete — and the `SealedView` a
    /// reader holds, each against the linear scan.
    #[test]
    fn wide_population_matches_linear_scan(
        recs in proptest::collection::vec(
            (0u16..1000, 0usize..9, 0u64..140, 0u64..60, 0u64..2000), 200..216),
        acts in proptest::collection::vec(0u8..60, 216),
        width in 1u64..200,
        a in 0u64..140,
        b in 0u64..140,
        k in 0usize..160,
    ) {
        let raw = wide_records(&recs);
        let (links, flows) = (wide_patterns(), wide_flows());
        let distinct: std::collections::HashSet<FlowId> = raw.iter().map(|r| r.flow).collect();
        prop_assert!(distinct.len() >= 130, "{} distinct flows", distinct.len());

        let mut flat = Tib::with_bucket_width(Nanos(width));
        raw.iter().for_each(|r| flat.insert(r.clone()));
        for range in ranges(a, b) {
            assert_queries_match(&flat, &raw, range, k, width, &links, &flows)?;
        }
        drop(flat);

        let mid = a as usize % raw.len() + 1;
        for upto in [mid, raw.len()] {
            let dir = evict_dir();
            let mut tib = wide_tiered(&raw[..upto], &acts, width, &dir);
            prop_assert_eq!(tib.records_vec(), raw[..upto].to_vec(), "insertion order");
            for range in ranges(a, b) {
                assert_queries_match(&tib, &raw[..upto], range, k, width, &links, &flows)?;
            }
            // A reader's view is the sealed prefix: part of the store
            // before this seal, all of it after.
            for _ in 0..2 {
                let view = tib.reader().snapshot();
                let sealed = &raw[..view.num_records()];
                for range in ranges(a, b) {
                    assert_queries_match(&*view, sealed, range, k, width, &links, &flows)?;
                }
                tib.seal();
            }
            prop_assert_eq!(tib.reader().snapshot().num_records(), upto);
            prop_assert_eq!(tib.read_failures(), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// --- path ids across seals ---

/// The `n`-th (mod `len!`) permutation of `0..len`, by its factorial-base
/// digits.
fn nth_permutation(mut n: usize, len: usize) -> Vec<usize> {
    let mut left: Vec<usize> = (0..len).collect();
    let mut out = Vec::with_capacity(len);
    while !left.is_empty() {
        out.push(left.remove(n % left.len()));
        n /= left.len() + 1;
    }
    out
}

/// `get_count` / `get_duration` restricted to one path, by linear scan.
fn ref_on_path(raw: &[TibRecord], f: FlowId, p: &Path, range: TimeRange) -> ((u64, u64), Nanos) {
    let on: Vec<TibRecord> = raw.iter().filter(|r| r.path == *p).cloned().collect();
    (
        ref_get_count(&on, f, range),
        ref_get_duration(&on, f, range),
    )
}

/// The path-restricted queries and `get_paths` under every pattern, which
/// the families above ask only unrestricted and under ANY: the store
/// compares paths by id, and a segment's ids are its own.
fn assert_path_queries_match<T: TibRead>(
    tib: &T,
    raw: &[TibRecord],
    range: TimeRange,
) -> Result<(), TestCaseError> {
    let mut pool = path_pool();
    pool.push(Path::new(vec![SwitchId(9), SwitchId(4)])); // never stored
    for f in (1..=4).map(flow) {
        for p in &pool {
            let (count, duration) = ref_on_path(raw, f, p, range);
            prop_assert_eq!(
                tib.get_count(f, Some(p), range),
                count,
                "get_count on {:?}",
                p
            );
            prop_assert_eq!(
                tib.get_duration(f, Some(p), range),
                duration,
                "get_duration on {:?}",
                p
            );
        }
        for link in patterns() {
            prop_assert_eq!(
                tib.get_paths(f, link, range),
                ref_get_paths(raw, f, link, range),
                "get_paths({:?}, {:?})",
                link,
                range
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every segment meets the pool's paths first in an order of its own
    /// (a generated permutation), so the same `Path` has a different id in
    /// each segment, and each segment's records follow on those paths.
    /// With every segment evicted cold, the queries reload them from their
    /// files and rebuild each dictionary in the file's order — again per
    /// segment — and must match the linear scan; once more through the
    /// `SealedView` a reader holds, after a second eviction.
    #[test]
    fn path_ids_per_segment_survive_evict_and_cold_reload(
        segments in proptest::collection::vec(
            (0usize..120, proptest::collection::vec(
                (0u16..6, 0usize..5, 0u64..140, 0u64..60, 0u64..2000), 0..8)),
            2..5),
        width in 1u64..200,
        a in 0u64..140,
        b in 0u64..140,
        k in 0usize..8,
    ) {
        let pool = path_pool();
        let dir = evict_dir();
        let mut tib = TieredTib::with_bucket_width(Nanos(width));
        let mut raw = Vec::new();
        for (perm, recs) in &segments {
            let first_seen = nth_permutation(*perm, pool.len());
            let leads = first_seen.iter().map(|&p| (*perm as u16, p, *perm as u64, 7, p as u64));
            for (sport, pidx, t0, dur, bytes) in leads.chain(recs.iter().copied()) {
                let rec = TibRecord {
                    flow: flow(1 + sport % 4),
                    path: pool[pidx % pool.len()].clone(),
                    stime: Nanos(t0 % 120),
                    etime: Nanos(t0 % 120 + dur % 50),
                    bytes: 1 + bytes % 1000,
                    pkts: 1 + bytes % 7,
                };
                tib.insert(rec.clone());
                raw.push(rec);
            }
            tib.seal();
        }
        prop_assert_eq!(tib.evict_cold(0, &dir).expect("evict"), segments.len());
        for range in ranges(a, b) {
            assert_all_queries_match(&tib, &raw, range, k, width)?;
            assert_path_queries_match(&tib, &raw, range)?;
        }
        prop_assert_eq!(tib.cold_reloads(), segments.len() as u64, "queries reloaded every segment");
        prop_assert_eq!(tib.records_vec(), raw.clone(), "insertion order");
        prop_assert_eq!(tib.evict_cold(0, &dir).expect("evict"), segments.len());
        let view = tib.reader().snapshot();
        for range in ranges(a, b) {
            assert_all_queries_match(&*view, &raw, range, k, width)?;
            assert_path_queries_match(&*view, &raw, range)?;
        }
        prop_assert_eq!(tib.read_failures(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
