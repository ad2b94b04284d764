//! Exec differential gate: `execute_on_tib`'s composite queries —
//! `FlowSizeDist`, `TrafficMatrix`, `HeavyHitters` — must answer exactly
//! what the bodies they replaced answered. Those bodies are kept here,
//! unchanged, as the oracle, over a `link_flow_counts` that is a linear
//! scan of the raw records with the closed-range overlap test written out
//! (so a slip in `TimeRange::overlaps` cannot hide on both sides).
//!
//! The shipped side reaches the records through everything the oracle does
//! not have: the posting lists and their adjacent-repeat skip, the time
//! column, the pre-summed buckets, the segment fold of the tiered engine
//! and the push-then-sum aggregation. The generator leans on where those
//! can slip: a loopy path that repeats a link and two switches; several
//! records per flow, so that a histogram counted per record differs from
//! one counted per flow; records and range endpoints on exact bucket-width
//! multiples and one off either side; zero-duration records; ranges that
//! start on a record's `etime`, end on its `stime`, and miss either by one.
//! Every case runs on a flat `Tib`, on a `TieredTib` under a generated
//! insert/seal/`evict_cold` interleaving, and on the `SealedView` that
//! store publishes, at bucket widths 1, 64 and the default.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

use pathdump_core::{execute_on_tib, Query, Response, TibRead, TieredTib};
use pathdump_tib::{Tib, TibRecord, DEFAULT_BUCKET_WIDTH};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// The oracle: the three arms as they shipped before the shared traversal
// (bodies verbatim), over a linear scan.
// ---------------------------------------------------------------------------

fn link_flow_counts(
    raw: &[TibRecord],
    link: LinkPattern,
    range: TimeRange,
) -> HashMap<FlowId, (u64, u64)> {
    let mut out: HashMap<FlowId, (u64, u64)> = HashMap::new();
    for rec in raw {
        let overlaps =
            range.start.is_none_or(|s| rec.etime >= s) && range.end.is_none_or(|e| rec.stime <= e);
        if overlaps && (link.is_any() || rec.path.links().any(|l| link.matches(l))) {
            let e = out.entry(rec.flow).or_insert((0, 0));
            e.0 += rec.bytes;
            e.1 += rec.pkts;
        }
    }
    out
}

fn old_execute(raw: &[TibRecord], q: &Query) -> Response {
    match q {
        Query::FlowSizeDist {
            link,
            range,
            bin_bytes,
        } => {
            let counts = link_flow_counts(raw, *link, *range);
            let bin = (*bin_bytes).max(1);
            let mut bins: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for (_, (bytes, _)) in counts {
                *bins.entry(bytes / bin).or_insert(0) += 1;
            }
            let mut v: Vec<(u64, u64)> = bins.into_iter().collect();
            v.sort_unstable();
            Response::Hist {
                bin_bytes: *bin_bytes,
                bins: v,
            }
        }
        Query::TrafficMatrix { range } => {
            let counts = link_flow_counts(raw, LinkPattern::ANY, *range);
            let mut map: std::collections::HashMap<
                (pathdump_topology::Ip, pathdump_topology::Ip),
                u64,
            > = std::collections::HashMap::new();
            for (flow, (bytes, _)) in counts {
                *map.entry((flow.src_ip, flow.dst_ip)).or_insert(0) += bytes;
            }
            let mut v: Vec<_> = map.into_iter().collect();
            v.sort_unstable();
            Response::Matrix(v)
        }
        Query::HeavyHitters { min_bytes, range } => {
            let counts = link_flow_counts(raw, LinkPattern::ANY, *range);
            let mut flows: Vec<(u64, pathdump_topology::FlowId)> = counts
                .into_iter()
                .filter(|(_, (b, _))| b >= min_bytes)
                .map(|(f, (b, _))| (b, f))
                .collect();
            flows.sort_by(|a, b| b.cmp(a));
            Response::Flows(flows.into_iter().map(|(_, f)| f).collect())
        }
        other => panic!("no oracle for {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Generators: tiny universes, so repeats and boundary hits are the common
// case.
// ---------------------------------------------------------------------------

/// Eight flows over two sources and two destinations: a matrix cell sums
/// two flows, a flow collects several records.
fn flow(i: u16) -> FlowId {
    FlowId::tcp(
        Ip::new(10, 0, 0, 2 + (i % 2) as u8),
        1000 + (i / 2) % 2,
        Ip::new(10, 1, 0, 2 + (i / 4) as u8),
        80,
    )
}

/// Paths over switches 0..=5; the last repeats link 0->2 and switches 0, 2.
fn path_pool() -> Vec<Path> {
    [
        &[0u16, 2, 4][..],
        &[0, 3, 4],
        &[1, 2, 5],
        &[1, 3, 5],
        &[0, 2, 0, 2, 4],
    ]
    .iter()
    .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
    .collect()
}

fn patterns() -> Vec<LinkPattern> {
    let mut v = vec![LinkPattern::ANY];
    for s in 0..6 {
        v.push(LinkPattern::into(SwitchId(s)));
        v.push(LinkPattern::out_of(SwitchId(s)));
    }
    // 0->2 and 2->0 are the loopy path's links; 4->0 matches nothing.
    for (f, t) in [(0, 2), (2, 0), (2, 4), (1, 3), (3, 5), (4, 0)] {
        v.push(LinkPattern::exact(SwitchId(f), SwitchId(t)));
    }
    v
}

/// Offsets inside a bucket of width `w` worth hitting: its first stime, one
/// past it, the middle and its last stime (`w = 1` collapses to `{0}`).
fn boundary_offsets(w: u64) -> Vec<u64> {
    let mut v = vec![0, 1 % w, w / 2, w - 1];
    v.sort_unstable();
    v.dedup();
    v
}

/// One generated record: flow, path, start bucket and offset, duration in
/// whole buckets plus an offset (both zero: a zero-duration record), bytes.
type RecTuple = (u16, usize, u64, usize, u64, usize, u64);

fn records(recs: &[RecTuple], width: u64) -> Vec<TibRecord> {
    let pool = path_pool();
    let offs = boundary_offsets(width);
    recs.iter()
        .map(|&(f, pidx, sbucket, soff, dbuckets, doff, bytes)| {
            let stime = sbucket * width + offs[soff % offs.len()];
            let etime = stime + dbuckets * width + offs[doff % offs.len()];
            TibRecord {
                flow: flow(f % 8),
                path: pool[pidx % pool.len()].clone(),
                stime: Nanos(stime),
                etime: Nanos(etime),
                // Up to 3.2 bins of 10 000 per record, so that per-flow sums
                // spread over a dozen bins.
                bytes: 1 + bytes % 32_000,
                pkts: 1 + bytes % 7,
            }
        })
        .collect()
}

/// Ranges with endpoints on bucket edges (and one off either side), and
/// ranges pinned to the first and last record: starting exactly on its
/// `etime`, ending exactly on its `stime`, and missing either by one.
fn ranges(
    (ab, ao): (u64, usize),
    (bb, bo): (u64, usize),
    width: u64,
    raw: &[TibRecord],
) -> Vec<TimeRange> {
    let offs = boundary_offsets(width);
    let x = ab * width + offs[ao % offs.len()];
    let y = bb * width + offs[bo % offs.len()];
    let (lo, hi) = (Nanos(x.min(y)), Nanos(x.max(y)));
    let mut v = vec![
        TimeRange::ANY,
        TimeRange::since(lo),
        TimeRange::until(hi),
        TimeRange::between(lo, hi),
        TimeRange::between(lo, lo),
    ];
    for rec in raw.first().into_iter().chain(raw.last()) {
        v.push(TimeRange::since(rec.etime));
        v.push(TimeRange::since(Nanos(rec.etime.0 + 1)));
        v.push(TimeRange::until(rec.stime));
        v.push(TimeRange::between(rec.etime, Nanos(rec.etime.0 + width)));
        v.push(TimeRange::between(
            Nanos(rec.stime.0.saturating_sub(width)),
            rec.stime,
        ));
        if rec.stime > Nanos::ZERO {
            v.push(TimeRange::until(Nanos(rec.stime.0 - 1)));
        }
    }
    v
}

/// Every composite query over one range.
fn queries(range: TimeRange) -> Vec<Query> {
    let mut v = vec![Query::TrafficMatrix { range }];
    for min_bytes in [0, 1, 20_000, 64_000] {
        v.push(Query::HeavyHitters { min_bytes, range });
    }
    for link in patterns() {
        for bin_bytes in [0, 1, 10_000] {
            v.push(Query::FlowSizeDist {
                link,
                range,
                bin_bytes,
            });
        }
    }
    v
}

/// The shipped answer of `tib` and the oracle's over `raw`, for every
/// composite query over every range.
fn check<T: TibRead + ?Sized>(
    engine: &str,
    tib: &T,
    raw: &[TibRecord],
    ranges: &[TimeRange],
    width: u64,
) -> Result<(), TestCaseError> {
    for &range in ranges {
        for q in queries(range) {
            let new = execute_on_tib(tib, &q);
            prop_assert_eq!(
                &new,
                &old_execute(raw, &q),
                "{} width={} {:?} over {:?}",
                engine,
                width,
                q,
                raw
            );
            let ascending = match &new {
                Response::Hist { bins, .. } => bins.windows(2).all(|w| w[0].0 < w[1].0),
                Response::Matrix(cells) => cells.windows(2).all(|w| w[0].0 < w[1].0),
                _ => true,
            };
            prop_assert!(ascending, "{} {:?}: keys not strictly ascending", engine, q);
        }
    }
    Ok(())
}

/// Per-case unique eviction directory (proptest cases share a thread).
static EVICT_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn evict_dir() -> std::path::PathBuf {
    let seq = EVICT_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pathdump-exec-{}-{seq}", std::process::id()));
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

fn check_all_engines(
    recs: &[RecTuple],
    acts: &[u8],
    width: u64,
    qa: (u64, usize),
    qb: (u64, usize),
) -> Result<(), TestCaseError> {
    let raw = records(recs, width);
    let ranges = ranges(qa, qb, width, &raw);

    let mut flat = Tib::with_bucket_width(Nanos(width));
    for rec in &raw {
        flat.insert(rec.clone());
    }
    check("Tib", &flat, &raw, &ranges, width)?;

    let dir = evict_dir();
    let store = tiered(&raw, acts, width, &dir);
    check("TieredTib", &store, &raw, &ranges, width)?;
    prop_assert_eq!(store.read_failures(), 0);

    // The published view: the sealed prefix, none of the head.
    let view = store.reader().snapshot();
    let sealed = &raw[..view.num_records()];
    check("SealedView", &*view, sealed, &ranges, width)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn composite_queries_match_the_old_bodies(
        recs in proptest::collection::vec(
            (0u16..8, 0usize..5, 0u64..5, 0usize..4, 0u64..3, 0usize..4, 0u64..64_000), 0..20),
        acts in proptest::collection::vec(0u8..5, 20),
        width_sel in 0usize..3,
        qa in (0u64..6, 0usize..4),
        qb in (0u64..6, 0usize..4),
    ) {
        let width = [1, 64, DEFAULT_BUCKET_WIDTH.0][width_sel];
        check_all_engines(&recs, &acts, width, qa, qb)?;
    }
}

/// The cases the issue names, spelled out, so that they are covered
/// whatever the generator happens to draw: one loopy record on its repeated
/// link, two records of one flow that share a bin only when summed, and
/// ranges that touch a record at exactly one instant.
#[test]
fn named_cases_match_the_old_bodies() {
    // (flow, path, start bucket, start offset, buckets, end offset, bytes)
    let recs: [RecTuple; 5] = [
        (0, 4, 1, 0, 0, 0, 6_999), // loopy, zero duration, on a bucket edge
        (0, 0, 1, 0, 1, 0, 6_999), // same flow: 7 000 + 7 000 bytes is bin 1
        (1, 0, 2, 0, 0, 1, 499),
        (4, 2, 0, 3, 2, 0, 31_999),
        (5, 2, 3, 1, 0, 2, 9_999),
    ];
    // Seal after the loopy record, evict it cold after the third.
    let acts = [3, 0, 4, 0, 0];
    for width in [1, 64, DEFAULT_BUCKET_WIDTH.0] {
        check_all_engines(&recs, &acts, width, (1, 0), (2, 0)).expect("named cases");
    }
}
