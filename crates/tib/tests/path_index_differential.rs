//! Path-index differential gate: every `TibRead` method of the store must
//! answer exactly as the link-indexed store it replaced — kept, body
//! verbatim, in `link_indexed/` as the oracle — on the populations where
//! indexing by path rather than by link could go wrong:
//!
//! - the `query_fsd` shape (`fsd_population/`): k = 8 real shortest paths,
//!   a few hundred of them, unique flows, insertion order not stime order,
//!   so that an answer gathered path by path must be put back in insertion
//!   order;
//! - loopy paths, which repeat a link and a switch: a record is one match
//!   however often its path crosses the pattern;
//! - a path that revisits a switch without repeating a link, so that the
//!   per-link lists hold it once each but a switch list must dedupe it;
//! - a few flows with dozens of records each, several of one flow in one
//!   narrow stime bucket, asked over ranges that hold whole buckets and
//!   ranges that cut through them: a flow's records must be found, in
//!   order, however many there are, and a ranged aggregate must count every
//!   record of a bucket inside the range once.
//!
//! Lists (`get_flows`, `get_paths`, the record walk) compare in order;
//! `for_each_flow_count`, which has no order contract, compares by its
//! per-flow sums. Each population also runs through a `TieredTib` that
//! seals along the way, so a path interned in one segment is queried in
//! another.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

mod fsd_population;
mod link_indexed;

use fsd_population::{FsdPopulation, HOUR_NS};
use link_indexed::LinkIndexedTib;
use pathdump_tib::{Tib, TibRead, TibRecord, TieredTib};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The window of a `query_fsd` query.
const TEN_MINUTES_NS: u64 = 600_000_000_000;

/// What a differential run asks: patterns, ranges, flows (each with the
/// paths to ask `get_count`/`get_duration` about) and top-k sizes.
struct Questions {
    links: Vec<LinkPattern>,
    ranges: Vec<TimeRange>,
    flows: Vec<(FlowId, Vec<Option<Path>>)>,
    ks: Vec<usize>,
}

impl Questions {
    /// Every switch as `<?, S>` and `<S, ?>`, every link the records cross
    /// and its reverse, a switch and a link no record has; for each
    /// `flow_stride`-th flow, its paths, no path, and a path it never took.
    fn over(raw: &[TibRecord], ranges: Vec<TimeRange>, flow_stride: usize) -> Self {
        let mut switches = BTreeSet::new();
        let mut links = BTreeSet::new();
        for rec in raw {
            switches.extend(rec.path.0.iter().map(|s| s.0));
            for l in rec.path.links() {
                links.insert((l.from.0, l.to.0));
                links.insert((l.to.0, l.from.0));
            }
        }
        let absent = switches.last().map_or(0, |&s| s + 1);
        switches.insert(absent);
        links.insert((absent, 0));
        let mut patterns = vec![LinkPattern::ANY];
        for &s in &switches {
            patterns.push(LinkPattern::into(SwitchId(s)));
            patterns.push(LinkPattern::out_of(SwitchId(s)));
        }
        for &(f, t) in &links {
            patterns.push(LinkPattern::exact(SwitchId(f), SwitchId(t)));
        }

        let mut by_flow: Vec<(FlowId, Vec<Option<Path>>)> = Vec::new();
        let mut at: HashMap<FlowId, usize> = HashMap::new();
        for rec in raw {
            let i = *at.entry(rec.flow).or_insert_with(|| {
                by_flow.push((rec.flow, vec![None]));
                by_flow.len() - 1
            });
            let paths = &mut by_flow[i].1;
            if !paths.contains(&Some(rec.path.clone())) {
                paths.push(Some(rec.path.clone()));
            }
        }
        let never = Path::new(vec![SwitchId(absent)]);
        let mut flows: Vec<_> = by_flow.into_iter().step_by(flow_stride.max(1)).collect();
        for (_, paths) in &mut flows {
            paths.push(Some(never.clone()));
        }
        let ghost = FlowId::tcp(Ip::new(10, 9, 9, 9), 9, Ip::new(10, 9, 9, 8), 9);
        flows.push((ghost, vec![None]));
        let n = at.len();
        let ks = vec![0, 1, n / 2, n, n + 1];
        Questions {
            links: patterns,
            ranges,
            flows,
            ks,
        }
    }
}

/// `for_each_flow_count`'s visits, summed per flow.
fn folded(t: &dyn TibRead, link: LinkPattern, range: TimeRange) -> HashMap<FlowId, (u64, u64)> {
    let mut out: HashMap<FlowId, (u64, u64)> = HashMap::new();
    t.for_each_flow_count(link, range, &mut |f, b, p| {
        let e = out.entry(f).or_insert((0, 0));
        e.0 += b;
        e.1 += p;
    });
    out
}

/// Every `TibRead` method of `store` against `oracle`, over `q`.
fn assert_same(store: &dyn TibRead, oracle: &LinkIndexedTib, q: &Questions, what: &str) {
    assert_eq!(
        store.num_records(),
        oracle.num_records(),
        "{what}: num_records"
    );
    assert_eq!(
        store.records_vec(),
        oracle.records_vec(),
        "{what}: record walk"
    );
    for &range in &q.ranges {
        for &link in &q.links {
            assert_eq!(
                store.get_flows(link, range),
                oracle.get_flows(link, range),
                "{what}: get_flows({link:?}, {range:?})"
            );
            assert_eq!(
                store.link_flow_counts(link, range),
                oracle.link_flow_counts(link, range),
                "{what}: link_flow_counts({link:?}, {range:?})"
            );
            assert_eq!(
                folded(store, link, range),
                folded(oracle, link, range),
                "{what}: for_each_flow_count sums ({link:?}, {range:?})"
            );
        }
        for (flow, paths) in &q.flows {
            for link in [LinkPattern::ANY, q.links[1], q.links[q.links.len() - 2]] {
                assert_eq!(
                    store.get_paths(*flow, link, range),
                    oracle.get_paths(*flow, link, range),
                    "{what}: get_paths({flow:?}, {link:?}, {range:?})"
                );
            }
            for path in paths {
                assert_eq!(
                    store.get_count(*flow, path.as_ref(), range),
                    oracle.get_count(*flow, path.as_ref(), range),
                    "{what}: get_count({flow:?}, {path:?}, {range:?})"
                );
                assert_eq!(
                    store.get_duration(*flow, path.as_ref(), range),
                    oracle.get_duration(*flow, path.as_ref(), range),
                    "{what}: get_duration({flow:?}, {path:?}, {range:?})"
                );
            }
        }
        for &k in &q.ks {
            assert_eq!(
                store.top_k_flows(k, range),
                oracle.top_k_flows(k, range),
                "{what}: top_k_flows({k}, {range:?})"
            );
        }
    }
}

/// `raw` in a flat store, the oracle and a tiered store sealing every
/// `seal_every` records, each checked against the oracle.
fn check(raw: &[TibRecord], width: Nanos, seal_every: usize, q: &Questions) {
    let mut oracle = LinkIndexedTib::with_bucket_width(width);
    let mut flat = Tib::with_bucket_width(width);
    let mut tiered = TieredTib::with_bucket_width(width);
    tiered.set_seal_after(Some(seal_every));
    for rec in raw {
        oracle.insert(rec.clone());
        flat.insert(rec.clone());
        tiered.insert(rec.clone());
    }
    assert_same(&flat, &oracle, q, "Tib");
    assert_same(&tiered, &oracle, q, "TieredTib");
}

#[test]
fn fsd_shape_matches_the_link_indexed_store() {
    let mut pop = FsdPopulation::new(0, 7);
    let raw: Vec<TibRecord> = (0..3_000).map(|_| pop.draw()).collect();
    let stimes: Vec<Nanos> = raw.iter().map(|r| r.stime).collect();
    assert!(
        !stimes.is_sorted(),
        "insertion order must not be stime order"
    );
    let distinct: BTreeSet<&Path> = raw.iter().map(|r| &r.path).collect();
    assert!(distinct.len() > 200, "{} distinct paths", distinct.len());

    let mut ranges = vec![
        TimeRange::ANY,
        TimeRange::since(Nanos(HOUR_NS / 2)),
        TimeRange::until(Nanos(HOUR_NS / 3)),
    ];
    for start in [0, HOUR_NS / 7, HOUR_NS / 2, HOUR_NS - TEN_MINUTES_NS] {
        ranges.push(TimeRange::between(
            Nanos(start),
            Nanos(start + TEN_MINUTES_NS),
        ));
    }
    // A range on one record's exact span.
    ranges.push(TimeRange::between(raw[5].stime, raw[5].etime));
    let q = Questions::over(&raw, ranges, 97);
    check(&raw, pathdump_tib::DEFAULT_BUCKET_WIDTH, 1_100, &q);
}

/// Paths over switches 0..=5: simple ones, two loopy ones (repeating a
/// link, hence a switch) and two that revisit a switch over distinct links.
fn small_pool() -> Vec<Path> {
    [
        &[0u16, 2, 4][..],
        &[1, 3, 5],
        &[0, 2, 0, 2, 4],
        &[3, 1, 3, 1, 3, 5],
        &[0, 2, 1, 2, 4],
        &[3, 1, 3, 5],
        &[2],
        &[],
    ]
    .iter()
    .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
    .collect()
}

fn small_records(recs: &[(u16, usize, u64, u64, u64)], pool: &[Path]) -> Vec<TibRecord> {
    recs.iter()
        .map(|&(sport, pidx, t0, dur, bytes)| TibRecord {
            flow: FlowId::tcp(Ip::new(10, 0, 0, 2), 1 + sport, Ip::new(10, 1, 0, 2), 80),
            path: pool[pidx % pool.len()].clone(),
            stime: Nanos(t0),
            etime: Nanos(t0 + dur),
            bytes: 1 + bytes,
            pkts: 1 + bytes % 7,
        })
        .collect()
}

fn small_ranges(a: u64, b: u64) -> Vec<TimeRange> {
    let (lo, hi) = (a.min(b), a.max(b) + 1);
    vec![
        TimeRange::ANY,
        TimeRange::since(Nanos(lo)),
        TimeRange::until(Nanos(hi)),
        TimeRange::between(Nanos(lo), Nanos(hi)),
    ]
}

/// `small_ranges`, plus ranges over whole `width`-wide buckets: one from
/// the first stime of `a`'s bucket to the last of `b`'s (at least two
/// buckets later), which holds every bucket in between, and one that
/// starts there and ends mid-bucket.
fn bucket_ranges(width: u64, a: u64, b: u64) -> Vec<TimeRange> {
    let lo = a.min(b) / width * width;
    let hi = (a.max(b) / width + 3) * width - 1;
    let mut ranges = small_ranges(a, b);
    ranges.push(TimeRange::between(Nanos(lo), Nanos(hi)));
    ranges.push(TimeRange::between(Nanos(lo), Nanos(hi - width / 2)));
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Three flows, 80 to 160 records over stimes below 200 and at most 25
    /// buckets (width 8 to 48), so some flow has two records in one
    /// bucket; every flow's records, on simple and loopy paths alike, are
    /// asked for by path, count and duration.
    #[test]
    fn repeating_flows_match_the_link_indexed_store(
        recs in proptest::collection::vec(
            (0u16..3, 0usize..8, 0u64..200, 0u64..24, 0u64..2000), 80..160),
        width in 8u64..48,
        seal_every in 1usize..40,
        a in 0u64..200,
        b in 0u64..200,
    ) {
        let raw = small_records(&recs, &small_pool());
        let q = Questions::over(&raw, bucket_ranges(width, a, b), 1);
        check(&raw, Nanos(width), seal_every, &q);
    }

    /// Loopy paths and switch revisits, a handful of flows with several
    /// records each on several paths, bucket widths from 1 to 200 ns.
    #[test]
    fn loopy_and_revisiting_paths_match_the_link_indexed_store(
        recs in proptest::collection::vec(
            (0u16..6, 0usize..8, 0u64..140, 0u64..60, 0u64..2000), 0..40),
        width in 1u64..200,
        seal_every in 1usize..12,
        a in 0u64..200,
        b in 0u64..200,
    ) {
        let raw = small_records(&recs, &small_pool());
        let q = Questions::over(&raw, small_ranges(a, b), 1);
        check(&raw, Nanos(width), seal_every, &q);
    }

    /// Only the paths that revisit a switch without repeating a link.
    #[test]
    fn switch_revisits_without_repeated_links_match_the_link_indexed_store(
        recs in proptest::collection::vec(
            (0u16..4, 0usize..2, 0u64..140, 0u64..60, 0u64..2000), 1..30),
        width in 1u64..200,
        a in 0u64..200,
        b in 0u64..200,
    ) {
        let pool = small_pool()[4..6].to_vec();
        let raw = small_records(&recs, &pool);
        let q = Questions::over(&raw, small_ranges(a, b), 1);
        check(&raw, Nanos(width), 5, &q);
    }
}
