//! Differential pin for the rpc plane: a [`TreePlane`] over the lossless
//! [`Loopback`] channel must be **bit-identical** to the flat fold of every
//! queried host's local answer (`execute_on_tib` + `Response::merge`) —
//! same merged `Response`, complete coverage, deadline met — across
//! arbitrary queries (all nine variants), fan-out shapes (direct, `[n]`,
//! included), host subsets, and TIB contents.
//!
//! This is the suite that lets every chaos/degradation test trust the
//! plane's merge logic: once the lossless plane is pinned to the oracle,
//! a fault test only has to reason about *which hosts* contributed.
//!
//! Every lossless run must also be **quiet on the wire**: no retry, no
//! duplicate, no cached reply (`PlaneStats::default()`), and exactly one
//! request and one reply per host plus one accept-ack per interior node.
//!
//! Inputs are kept deliberately small: the vendored proptest stub does not
//! shrink failures.

use pathdump_core::{build_tree, execute_on_tib, Query, Response, TreeNode};
use pathdump_rpc::{
    Channel, Coverage, Loopback, PlaneStats, ReplyMsg, RequestMsg, RpcConfig, TreePlane,
    FRAME_RPC_REPLY, FRAME_RPC_REQUEST,
};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::Frame;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The switch pool TIB paths draw from (shared with query link patterns so
/// link-scoped queries actually match records).
const SWITCHES: [u16; 5] = [0, 4, 8, 12, 16];

fn mk_tibs(seed: u64, n_hosts: usize) -> Vec<Tib> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_hosts)
        .map(|h| {
            let mut t = Tib::new();
            for _ in 0..rng.gen_range(0..25usize) {
                let src = rng.gen_range(0..6u8);
                let dst = rng.gen_range(0..6u8);
                let sport = 1000 + rng.gen_range(0..8u16);
                let a = SWITCHES[rng.gen_range(0..SWITCHES.len())];
                let b = SWITCHES[rng.gen_range(0..SWITCHES.len())];
                let c = SWITCHES[rng.gen_range(0..SWITCHES.len())];
                let stime = Nanos(rng.gen_range(0..5000u64));
                t.insert(TibRecord {
                    flow: FlowId::tcp(Ip::new(10, src, 0, 2), sport, Ip::new(10, dst, 1, 2), 80),
                    path: Path::new(vec![SwitchId(a), SwitchId(b), SwitchId(c)]),
                    stime,
                    etime: stime + Nanos(rng.gen_range(1..500u64)),
                    bytes: rng.gen_range(1..100_000u64),
                    pkts: rng.gen_range(1..10u64),
                });
            }
            let _ = h;
            t
        })
        .collect()
}

/// The oracle: the flat fold of every queried host's local answer. The
/// merge is a semilattice on every variant (`merge_differential` pins that
/// every split and rotation equals the left fold), so any tree over the
/// same hosts must equal it.
fn flat_fold(tibs: &[Tib], q: &Query, hosts: &[usize]) -> Response {
    let mut acc = Response::empty_for(q);
    for &h in hosts {
        acc.merge(execute_on_tib(&tibs[h], q));
    }
    acc
}

/// Query spec: variant selector plus raw parameter material.
type QuerySpec = (u8, u8, u8, u8, u64);

fn mk_query(spec: QuerySpec) -> Query {
    let (sel, a, b, c, x) = spec;
    let flow = FlowId::tcp(
        Ip::new(10, a % 6, 0, 2),
        1000 + (b % 8) as u16,
        Ip::new(10, c % 6, 1, 2),
        80,
    );
    let link = match a % 3 {
        0 => LinkPattern::ANY,
        1 => LinkPattern {
            from: Some(SwitchId(SWITCHES[b as usize % SWITCHES.len()])),
            to: None,
        },
        _ => LinkPattern {
            from: Some(SwitchId(SWITCHES[b as usize % SWITCHES.len()])),
            to: Some(SwitchId(SWITCHES[c as usize % SWITCHES.len()])),
        },
    };
    let range = match b % 3 {
        0 => TimeRange::ANY,
        1 => TimeRange {
            start: Some(Nanos(x % 3000)),
            end: None,
        },
        _ => {
            let s = x % 3000;
            TimeRange::between(Nanos(s), Nanos(s + 1500))
        }
    };
    match sel % 9 {
        0 => Query::GetFlows { link, range },
        1 => Query::GetPaths { flow, link, range },
        2 => Query::GetCount {
            flow,
            path: None,
            range,
        },
        3 => Query::GetDuration {
            flow,
            path: None,
            range,
        },
        4 => Query::GetPoorTcp {
            threshold: (c % 4) as u32,
        },
        5 => Query::FlowSizeDist {
            link,
            range,
            bin_bytes: 1000 * (1 + (c % 10) as u64),
        },
        6 => Query::TopK {
            k: 1 + (c % 20) as u32,
            range,
        },
        7 => Query::TrafficMatrix { range },
        _ => Query::HeavyHitters {
            min_bytes: x % 50_000,
            range,
        },
    }
}

const FANOUT_MENU: [&[usize]; 6] = [&[7, 4, 4], &[3, 2, 2], &[2, 2, 2, 2], &[1], &[40], &[4, 4]];

/// First-occurrence dedup preserving order — both sides must see the same
/// host sequence, and a host appearing twice in one tree would alias two
/// tree positions onto one agent.
fn host_subset(selectors: &[u8], n_hosts: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for &s in selectors {
        let h = s as usize % n_hosts;
        if !out.contains(&h) {
            out.push(h);
        }
    }
    out
}

/// Frames of one lossless query: a request and a reply per host, and an
/// accept-ack per interior node (a leaf's reply doubles as its ack).
fn lossless_frames(hosts: &[usize], fanouts: &[usize]) -> u64 {
    fn interior(n: &TreeNode) -> u64 {
        u64::from(!n.children.is_empty()) + n.children.iter().map(interior).sum::<u64>()
    }
    build_tree(hosts, fanouts)
        .iter()
        .map(|root| 2 * root.size() as u64 + interior(root))
        .sum()
}

fn check_equivalence(
    tib_seed: u64,
    n_hosts: usize,
    selectors: &[u8],
    fanout_sel: u8,
    spec: QuerySpec,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let hosts = host_subset(selectors, n_hosts);
    let fanouts = FANOUT_MENU[fanout_sel as usize % FANOUT_MENU.len()];
    let q = mk_query(spec);
    let tibs = mk_tibs(tib_seed, n_hosts);

    let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), tibs.clone());
    let id = plane.submit(&q, &hosts, fanouts);
    let Some(out) = plane.run(id) else {
        return Err(proptest::test_runner::TestCaseError::fail(format!(
            "plane went idle without completing {q:?} over {hosts:?}"
        )));
    };

    prop_assert_eq!(
        &out.response,
        &flat_fold(&tibs, &q, &hosts),
        "plane vs flat fold diverged: q={:?} hosts={:?} fanouts={:?}",
        q,
        hosts,
        fanouts
    );
    prop_assert!(out.coverage.is_complete(), "lossless run must cover all");
    let want: Vec<u32> = {
        let mut w: Vec<u32> = hosts.iter().map(|&h| h as u32).collect();
        w.sort_unstable();
        w
    };
    prop_assert!(
        out.coverage.partitions(&want),
        "coverage {:?} must partition {:?}",
        out.coverage,
        want
    );
    prop_assert!(out.deadline_met);
    prop_assert_eq!(plane.stats(), PlaneStats::default());
    prop_assert_eq!(
        plane.channel().frames_sent(),
        lossless_frames(&hosts, fanouts)
    );
    Ok(())
}

/// 28 hosts under fan-outs `[7, 4]` (6 interior nodes, 22 leaves), each
/// answering `TopK { k: flows }` with all of its `flows` flows, every byte
/// count distinct: the flat fold's answer, complete and in time, and a quiet
/// wire — 62 frames, no retry, duplicate or cached reply. A reply that is
/// merely large must not look like a lost one.
fn assert_top_k_quiet(flows: usize) {
    let hosts: Vec<usize> = (0..28).collect();
    let fanouts = [7, 4];
    let tibs: Vec<Tib> = hosts
        .iter()
        .map(|&h| {
            let mut t = Tib::new();
            for i in 0..flows {
                t.insert(TibRecord {
                    flow: FlowId::tcp(
                        Ip::new(10, h as u8, 0, 2),
                        1000 + i as u16,
                        Ip::new(10, 99, 1, 2),
                        80,
                    ),
                    path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
                    stime: Nanos(i as u64),
                    etime: Nanos(i as u64 + 10),
                    bytes: (1 + h * flows + i * 29 % flows) as u64,
                    pkts: 1,
                });
            }
            t
        })
        .collect();
    let q = Query::TopK {
        k: flows as u32,
        range: TimeRange::ANY,
    };
    for (h, tib) in tibs.iter().enumerate() {
        let Response::TopK { entries, .. } = execute_on_tib(tib, &q) else {
            panic!("host {h} did not answer a top-k");
        };
        assert_eq!(entries.len(), flows, "host {h}'s reply");
    }
    let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), tibs.clone());
    let id = plane.submit(&q, &hosts, &fanouts);
    let out = plane.run(id).expect("completes");
    assert_eq!(out.response, flat_fold(&tibs, &q, &hosts));
    assert!(out.coverage.is_complete() && out.deadline_met);
    assert_eq!(plane.stats(), PlaneStats::default());
    assert_eq!(lossless_frames(&hosts, &fanouts), 62);
    assert_eq!(plane.channel().frames_sent(), 62);
}

/// Fig 12's size: every host's reply carries the figure's k = 10 000
/// entries — ≈ 44 KB table-coded, and ≈ 160 KB, 1.3 ms of the modelled
/// 1 Gb/s link and more than half an `rto`, in the 13-byte flow-id layout.
#[test]
fn fig12_size_topk_is_quiet_on_the_wire() {
    assert_top_k_quiet(10_000);
}

/// k = 20 000: ≈ 100 KB per leaf reply table-coded. In the 13-byte flow-id
/// layout it was ≈ 325 KB, past the ≈ 225 KB at which a leaf's reply (a
/// leaf does not ack) outlasts the parent's `rto` and draws a retry and a
/// cached duplicate on a lossless channel. The bytes threshold is where it
/// was; what moved is the k that reaches it (ROADMAP item 6(c)).
#[test]
fn top_k_at_the_old_retry_threshold_is_quiet() {
    assert_top_k_quiet(20_000);
}

/// `n` records of distinct flows from one source subnet per host, on one
/// three-switch path.
fn tib_with(host: usize, n: usize) -> Tib {
    let mut t = Tib::new();
    for i in 0..n {
        t.insert(TibRecord {
            flow: FlowId::tcp(
                Ip::new(10, host as u8, 0, 2),
                1000 + i as u16,
                Ip::new(10, 99, 0, 2),
                80,
            ),
            path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
            stime: Nanos(i as u64),
            etime: Nanos(i as u64 + 10),
            bytes: (host * 1000 + i * 17) as u64,
            pkts: 1,
        });
    }
    t
}

/// One complete query's answer and the bytes it put on the channel.
fn traffic_of<C: Channel>(
    plane: &mut TreePlane<C>,
    q: &Query,
    hosts: &[usize],
    fanouts: &[usize],
) -> (Response, u64) {
    let before = plane.channel().bytes_sent();
    let id = plane.submit(q, hosts, fanouts);
    let out = plane.run(id).expect("completes");
    assert!(out.coverage.is_complete(), "{:?}", out.coverage);
    (out.response, plane.channel().bytes_sent() - before)
}

/// Direct (every host a root of its own one-node tree) and the paper's
/// `[7, 4, 4]` tree answer four query shapes with the flat fold, and
/// direct puts exactly one request and one reply frame per host on the
/// wire, nothing else.
#[test]
fn direct_and_tree_agree_on_results() {
    let tibs: Vec<Tib> = (0..30).map(|h| tib_with(h, 50)).collect();
    let hosts: Vec<usize> = (0..30).collect();
    let cfg = RpcConfig {
        max_children_inflight: hosts.len(),
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::new(Loopback::default(), cfg, tibs.clone());
    let queries = [
        Query::FlowSizeDist {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
            bin_bytes: 1000,
        },
        Query::TopK {
            k: 20,
            range: TimeRange::ANY,
        },
        Query::GetFlows {
            link: LinkPattern::exact(SwitchId(0), SwitchId(8)),
            range: TimeRange::ANY,
        },
        Query::TrafficMatrix {
            range: TimeRange::ANY,
        },
    ];
    for q in &queries {
        let frames_before = plane.channel().frames_sent();
        let bytes_before = plane.channel().bytes_sent();
        let child_deadline = plane.now() + cfg.deadline - cfg.hop_slack;
        let id = plane.submit(q, &hosts, &[hosts.len()]);
        let direct = plane.run(id).expect("completes");
        let per_host: u64 = hosts
            .iter()
            .map(|&h| {
                let request = RequestMsg {
                    req_id: id,
                    deadline: child_deadline,
                    query: q.clone(),
                    subtree: TreeNode {
                        host: h,
                        children: Vec::new(),
                    },
                };
                let reply = ReplyMsg {
                    req_id: id,
                    response: execute_on_tib(&tibs[h], q),
                    coverage: Coverage::answered_one(h as u32),
                };
                (Frame::build(FRAME_RPC_REQUEST, &request).len()
                    + Frame::build(FRAME_RPC_REPLY, &reply).len()) as u64
            })
            .sum();
        assert_eq!(
            plane.channel().frames_sent() - frames_before,
            2 * hosts.len() as u64,
            "query {q:?}"
        );
        assert_eq!(
            plane.channel().bytes_sent() - bytes_before,
            per_host,
            "query {q:?}"
        );
        let (tree, tree_bytes) = traffic_of(&mut plane, q, &hosts, &[7, 4, 4]);
        assert_eq!(direct.response, tree, "query {q:?}");
        assert_eq!(direct.response, flat_fold(&tibs, q, &hosts), "query {q:?}");
        assert!(direct.coverage.is_complete() && direct.elapsed > Nanos::ZERO);
        assert!(tree_bytes > 0);
    }
    assert_eq!(plane.stats(), PlaneStats::default());
}

/// Deliberately tied top-k inputs: the same flow on several hosts with
/// different byte totals (so merges see duplicates), and distinct flows
/// with equal totals (so the k-th slot is decided by tie-breaking alone).
/// Direct and two tree shapes give the *exact* same entries, equal to the
/// flat fold, and the top of the answer keeps each flow's max.
#[test]
fn topk_ties_agree_across_mechanisms() {
    let flow = |s: u16| FlowId::tcp(Ip::new(10, 0, 0, 2), s, Ip::new(10, 99, 0, 2), 80);
    let path = Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]);
    let mut tibs: Vec<Tib> = (0..12).map(|_| Tib::new()).collect();
    let mut put = |host: usize, sport: u16, bytes: u64| {
        tibs[host].insert(TibRecord {
            flow: flow(sport),
            path: path.clone(),
            stime: Nanos(1),
            etime: Nanos(10),
            bytes,
            pkts: 1,
        });
    };
    // Flow 2 on three hosts with three different totals (non-adjacent
    // duplicates after a descending sort), flows 5/6 competing for the
    // last slots, and a four-way byte tie at 500 across hosts.
    put(0, 2, 9900);
    put(3, 2, 9700);
    put(7, 2, 9650);
    put(1, 5, 9800);
    put(2, 6, 9600);
    for (host, sport) in [(4, 10), (5, 11), (6, 12), (8, 13)] {
        put(host, sport, 500);
    }
    // Background flows so every host answers something.
    for h in 0..12 {
        put(h, 100 + h as u16, 10 + h as u64);
    }
    let hosts: Vec<usize> = (0..12).collect();
    let cfg = RpcConfig {
        max_children_inflight: hosts.len(),
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::new(Loopback::default(), cfg, tibs.clone());
    for k in [1u32, 2, 3, 4, 5, 6, 8] {
        let q = Query::TopK {
            k,
            range: TimeRange::ANY,
        };
        let (direct, _) = traffic_of(&mut plane, &q, &hosts, &[12]);
        let (tree, _) = traffic_of(&mut plane, &q, &hosts, &[7, 4, 4]);
        assert_eq!(direct, tree, "k={k}");
        let (deep, _) = traffic_of(&mut plane, &q, &hosts, &[3, 2, 2]);
        assert_eq!(direct, deep, "k={k} deep tree");
        assert_eq!(direct, flat_fold(&tibs, &q, &hosts), "k={k} flat fold");
        if k == 3 {
            assert_eq!(
                direct,
                Response::TopK {
                    k: 3,
                    entries: vec![(9900, flow(2)), (9800, flow(5)), (9600, flow(6))]
                }
            );
        }
    }
    assert_eq!(plane.stats(), PlaneStats::default());
}

/// With a large k relative to per-host data, every interior node discards
/// the pairs beyond k, while direct ships every host's full top-k to the
/// controller: tree traffic — acks and source-routed subtrees included —
/// stays under 1.6 × direct's.
#[test]
fn topk_tree_reduces_traffic() {
    let tibs: Vec<Tib> = (0..60).map(|h| tib_with(h, 400)).collect();
    let hosts: Vec<usize> = (0..60).collect();
    let cfg = RpcConfig {
        max_children_inflight: hosts.len(),
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::new(Loopback::default(), cfg, tibs);
    let q = Query::TopK {
        k: 200,
        range: TimeRange::ANY,
    };
    let (direct, direct_bytes) = traffic_of(&mut plane, &q, &hosts, &[60]);
    let (tree, tree_bytes) = traffic_of(&mut plane, &q, &hosts, &[7, 4, 4]);
    assert_eq!(direct, tree);
    assert!(
        (tree_bytes as f64) < direct_bytes as f64 * 1.6,
        "tree {tree_bytes} vs direct {direct_bytes}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All nine query variants over arbitrary host subsets and fan-outs.
    #[test]
    fn loopback_plane_matches_multilevel_oracle(
        tib_seed in any::<u64>(),
        n_hosts in 1usize..40,
        selectors in proptest::collection::vec(any::<u8>(), 1..32),
        fanout_sel in any::<u8>(),
        spec in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
    ) {
        check_equivalence(tib_seed, n_hosts, &selectors, fanout_sel, spec)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelined: several queries in flight (bounded admission) must each
    /// still match the oracle exactly.
    #[test]
    fn pipelined_queries_match_oracle(
        tib_seed in any::<u64>(),
        n_hosts in 2usize..24,
        fanout_sel in any::<u8>(),
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            2..7,
        ),
        inflight in 1usize..4,
    ) {
        let hosts: Vec<usize> = (0..n_hosts).collect();
        let fanouts = FANOUT_MENU[fanout_sel as usize % FANOUT_MENU.len()];
        let tibs = mk_tibs(tib_seed, n_hosts);
        let cfg = RpcConfig {
            max_queries_inflight: inflight,
            ..RpcConfig::default()
        };
        let mut plane = TreePlane::new(Loopback::default(), cfg, tibs.clone());
        let queries: Vec<Query> = specs.iter().map(|&s| mk_query(s)).collect();
        let ids: Vec<_> = queries.iter().map(|q| plane.submit(q, &hosts, fanouts)).collect();
        plane.run_until_idle();
        for (q, id) in queries.iter().zip(ids) {
            let Some(out) = plane.take_outcome(id) else {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "query {q:?} never completed"
                )));
            };
            prop_assert_eq!(&out.response, &flat_fold(&tibs, q, &hosts), "q={:?}", q);
            prop_assert!(out.coverage.is_complete());
            prop_assert!(out.deadline_met);
        }
        prop_assert_eq!(plane.stats(), PlaneStats::default());
        prop_assert_eq!(
            plane.channel().frames_sent(),
            queries.len() as u64 * lossless_frames(&hosts, fanouts)
        );
    }
}
