//! Chaos suite: the plane under every injected fault class must
//!
//! 1. **terminate within the deadline** — every query gets a
//!    [`QueryOutcome`] with `elapsed <= deadline`, no matter what the
//!    channel does;
//! 2. **account exactly** — the coverage classes partition the queried
//!    host set, and for deterministic fault sets (dead peers, stragglers)
//!    they match the *predicted* set computed independently from the tree
//!    shape;
//! 3. **merge soundly** — the degraded response equals the flat fold of
//!    `execute_on_tib` over exactly `coverage.answered` (no partial host
//!    data, no double merge), for every query variant including top-k;
//! 4. **reproduce** — the same fault seed yields the identical outcome.

use pathdump_core::{build_tree, execute_on_tib, MgmtNet, Query, Response, TreeNode};
use pathdump_rpc::{FaultLog, FaultPlan, FaultyChannel, NodeId, RpcConfig, TreePlane};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId, TimeRange};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mk_tibs(seed: u64, n_hosts: usize) -> Vec<Tib> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_hosts)
        .map(|_| {
            let mut t = Tib::new();
            for _ in 0..rng.gen_range(1..20usize) {
                let stime = Nanos(rng.gen_range(0..5000u64));
                t.insert(TibRecord {
                    flow: FlowId::tcp(
                        Ip::new(10, rng.gen_range(0..6u8), 0, 2),
                        1000 + rng.gen_range(0..8u16),
                        Ip::new(10, rng.gen_range(0..6u8), 1, 2),
                        80,
                    ),
                    path: Path::new(vec![
                        SwitchId(rng.gen_range(0..5u16) * 4),
                        SwitchId(rng.gen_range(0..5u16) * 4),
                    ]),
                    stime,
                    etime: stime + Nanos(rng.gen_range(1..500u64)),
                    bytes: rng.gen_range(1..100_000u64),
                    pkts: rng.gen_range(1..10u64),
                });
            }
            t
        })
        .collect()
}

/// The plane's answered-set semantics, computed independently: fold each
/// answered host's local answer into `empty_for`, in any order (the merge
/// is canonical, so order is irrelevant).
fn flat_fold(tibs: &[Tib], q: &Query, answered: &[u32]) -> Response {
    let mut acc = Response::empty_for(q);
    for &h in answered {
        acc.merge(execute_on_tib(&tibs[h as usize], q));
    }
    acc
}

/// Hosts of every subtree rooted at a node in `roots` whose host is in
/// `cut` — the set an independent observer predicts as unreachable.
fn hosts_under(roots: &[TreeNode], cut: &[NodeId]) -> Vec<u32> {
    fn walk(n: &TreeNode, cut: &[NodeId], cut_above: bool, out: &mut Vec<u32>) {
        let cut_here = cut_above || cut.contains(&(n.host as NodeId));
        if cut_here {
            out.push(n.host as u32);
        }
        for c in &n.children {
            walk(c, cut, cut_here, out);
        }
    }
    let mut out = Vec::new();
    for r in roots {
        walk(r, cut, false, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn sorted_hosts(hosts: &[usize]) -> Vec<u32> {
    let mut v: Vec<u32> = hosts.iter().map(|&h| h as u32).collect();
    v.sort_unstable();
    v
}

#[test]
fn dead_interior_nodes_yield_exact_missed_sets() {
    // 30 hosts, fanouts [5, 3, 2]: kill one root-level aggregator and one
    // leaf. Everything in the aggregator's subtree plus the leaf must land
    // in `missed`; everyone else must answer; nothing times out (retries
    // exhaust well inside the deadline).
    let n = 30usize;
    let hosts: Vec<usize> = (0..n).collect();
    let fanouts = [5usize, 3, 2];
    let roots = build_tree(&hosts, &fanouts);
    let interior = roots[1].host as NodeId; // a root-level aggregator
    let leaf = roots[0]
        .children
        .last()
        .map(|c| c.host as NodeId)
        .unwrap_or(0);
    let dead = vec![interior, leaf];
    let expect_missed = hosts_under(&roots, &dead);
    assert!(
        expect_missed.len() > 2,
        "the interior node must drag a subtree with it: {expect_missed:?}"
    );

    let tibs = mk_tibs(11, n);
    let q = Query::TopK {
        k: 12,
        range: TimeRange::ANY,
    };
    let mut plan = FaultPlan::none(0);
    plan.dead = dead;
    let mut plane = TreePlane::new(
        FaultyChannel::new(MgmtNet::default(), plan),
        RpcConfig::default(),
        tibs.clone(),
    );
    let id = plane.submit(&q, &hosts, &fanouts);
    let out = plane.run(id).expect("deadline guarantees completion");

    assert_eq!(out.coverage.missed, expect_missed, "exact fault accounting");
    assert!(out.coverage.timed_out.is_empty(), "{:?}", out.coverage);
    let expect_answered: Vec<u32> = sorted_hosts(&hosts)
        .into_iter()
        .filter(|h| !expect_missed.contains(h))
        .collect();
    assert_eq!(out.coverage.answered, expect_answered);
    assert!(out.coverage.partitions(&sorted_hosts(&hosts)));
    assert!(out.elapsed <= plane.config().deadline);
    assert_eq!(out.response, flat_fold(&tibs, &q, &out.coverage.answered));
    assert!(
        plane.channel().log().dead_dropped > 0,
        "fault was exercised"
    );
    assert!(plane.stats().retries > 0, "dead peers must burn retries");
}

#[test]
fn straggler_beyond_deadline_times_out_exactly() {
    // One straggler delayed past the whole deadline, retries effectively
    // unbounded so exhaustion can never reclassify it as missed: its
    // subtree must be `timed_out`, everyone else answered, and the query
    // still returns at the deadline.
    let n = 18usize;
    let hosts: Vec<usize> = (0..n).collect();
    let fanouts = [3usize, 3, 2];
    let roots = build_tree(&hosts, &fanouts);
    let straggler = roots[2].host as NodeId;
    let expect_timed_out = hosts_under(&roots, &[straggler]);

    let cfg = RpcConfig {
        max_retries: 1_000,
        ..RpcConfig::default()
    };
    let mut plan = FaultPlan::none(0);
    plan.straggle = vec![(straggler, cfg.deadline + cfg.deadline)];

    let tibs = mk_tibs(13, n);
    let q = Query::TrafficMatrix {
        range: TimeRange::ANY,
    };
    let mut plane = TreePlane::new(
        FaultyChannel::new(MgmtNet::default(), plan),
        cfg,
        tibs.clone(),
    );
    let id = plane.submit(&q, &hosts, &fanouts);
    let out = plane.run(id).expect("deadline guarantees completion");

    assert_eq!(out.coverage.timed_out, expect_timed_out);
    assert!(out.coverage.missed.is_empty(), "{:?}", out.coverage);
    assert!(out.coverage.partitions(&sorted_hosts(&hosts)));
    assert!(out.elapsed <= plane.config().deadline);
    assert!(!out.coverage.is_complete());
    assert_eq!(out.response, flat_fold(&tibs, &q, &out.coverage.answered));
}

#[test]
fn duplicated_frames_never_double_merge() {
    // Every frame delivered twice: the reply cache and the per-child Done
    // state must keep the result bit-identical to a lossless run with
    // complete coverage — a double merge would double Count/TopK bytes.
    let n = 16usize;
    let hosts: Vec<usize> = (0..n).collect();
    let fanouts = [4usize, 2, 2];
    let tibs = mk_tibs(17, n);
    let q = Query::GetCount {
        flow: FlowId::tcp(Ip::new(10, 1, 0, 2), 1001, Ip::new(10, 2, 1, 2), 80),
        path: None,
        range: TimeRange::ANY,
    };
    let mut plan = FaultPlan::none(3);
    plan.dup_prob = 1.0;
    let mut plane = TreePlane::new(
        FaultyChannel::new(MgmtNet::default(), plan),
        RpcConfig::default(),
        tibs.clone(),
    );
    let id = plane.submit(&q, &hosts, &fanouts);
    let out = plane.run(id).expect("completes");
    assert!(plane.channel().log().duplicated > 0);
    assert!(out.coverage.is_complete());
    assert!(out.coverage.partitions(&sorted_hosts(&hosts)));
    assert_eq!(out.response, flat_fold(&tibs, &q, &sorted_hosts(&hosts)));
}

/// Query menu for the randomized chaos sweep (every merge shape).
fn chaos_query(sel: u8) -> Query {
    match sel % 6 {
        0 => Query::TopK {
            k: 8,
            range: TimeRange::ANY,
        },
        1 => Query::TrafficMatrix {
            range: TimeRange::ANY,
        },
        2 => Query::GetFlows {
            link: pathdump_topology::LinkPattern::ANY,
            range: TimeRange::ANY,
        },
        3 => Query::HeavyHitters {
            min_bytes: 10_000,
            range: TimeRange::ANY,
        },
        4 => Query::FlowSizeDist {
            link: pathdump_topology::LinkPattern::ANY,
            range: TimeRange::ANY,
            bin_bytes: 5_000,
        },
        _ => Query::GetCount {
            flow: FlowId::tcp(Ip::new(10, 1, 0, 2), 1001, Ip::new(10, 2, 1, 2), 80),
            path: None,
            range: TimeRange::ANY,
        },
    }
}

struct ChaosRun {
    response: Response,
    cov: pathdump_rpc::Coverage,
    elapsed: Nanos,
    log: FaultLog,
}

impl ChaosRun {
    fn of(
        tibs: &[Tib],
        q: &Query,
        hosts: &[usize],
        fanouts: &[usize],
        plan: FaultPlan,
    ) -> (Self, pathdump_rpc::PlaneStats) {
        let mut plane = TreePlane::new(
            FaultyChannel::new(MgmtNet::default(), plan),
            RpcConfig::default(),
            tibs.to_vec(),
        );
        let id = plane.submit(q, hosts, fanouts);
        let out = plane.run(id).expect("deadline guarantees completion");
        // Drain stragglers so decode/late-reply counters are final.
        plane.run_until_idle();
        (
            ChaosRun {
                response: out.response,
                cov: out.coverage,
                elapsed: out.elapsed,
                log: plane.channel().log(),
            },
            plane.stats(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary drop/dup/corrupt/jitter mixes plus random dead peers:
    /// deadline-bounded termination, exact partition, sound partial merge,
    /// and seed-reproducibility — for every merge shape.
    #[test]
    fn chaos_invariants_hold(
        tib_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        n_hosts in 4usize..28,
        qsel in any::<u8>(),
        drop_pm in 0u32..400,       // drop probability, per-mille
        dup_pm in 0u32..300,
        corrupt_pm in 0u32..300,
        jitter_us in 0u64..2_000,
        dead_sel in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let hosts: Vec<usize> = (0..n_hosts).collect();
        let fanouts = [4usize, 3, 3];
        let tibs = mk_tibs(tib_seed, n_hosts);
        let q = chaos_query(qsel);
        let mut dead: Vec<NodeId> = dead_sel.iter().map(|&s| s as NodeId % n_hosts as NodeId).collect();
        dead.sort_unstable();
        dead.dedup();
        let plan = FaultPlan {
            seed: fault_seed,
            drop_prob: drop_pm as f64 / 1000.0,
            dup_prob: dup_pm as f64 / 1000.0,
            corrupt_prob: corrupt_pm as f64 / 1000.0,
            jitter: Nanos(jitter_us * 1000),
            straggle: Vec::new(),
            dead: dead.clone(),
        };

        let (run, stats) = ChaosRun::of(&tibs, &q, &hosts, &fanouts, plan.clone());

        // 1. Deadline-bounded termination.
        prop_assert!(run.elapsed <= RpcConfig::default().deadline,
            "elapsed {:?} breaches deadline under {:?}", run.elapsed, plan);

        // 2. Exact accounting: the classes partition the host set, and
        // every host under a dead node is NOT in `answered`.
        prop_assert!(run.cov.partitions(&sorted_hosts(&hosts)),
            "coverage {:?} must partition hosts under {:?}", run.cov, plan);
        let roots = build_tree(&hosts, &fanouts);
        for h in hosts_under(&roots, &dead) {
            prop_assert!(!run.cov.answered.contains(&h),
                "host {} is unreachable (dead ancestry) yet marked answered", h);
        }

        // 3. Sound partial merge: the degraded response is exactly the
        // fold over the answered set — nothing more, nothing less.
        prop_assert_eq!(&run.response, &flat_fold(&tibs, &q, &run.cov.answered),
            "response must equal the fold over answered={:?} under {:?}",
            &run.cov.answered, &plan);

        // Corrupted frames never poison state — they only count. (A dup
        // copy of a corrupted frame fails the CRC a second time, so the
        // failure count is bounded by corrupted + duplicated.)
        prop_assert!(stats.decode_failures >= run.log.corrupted);
        prop_assert!(stats.decode_failures <= run.log.corrupted + run.log.duplicated);

        // 4. Reproducibility: identical seed, identical everything.
        let (rerun, restats) = ChaosRun::of(&tibs, &q, &hosts, &fanouts, plan);
        prop_assert_eq!(&rerun.response, &run.response);
        prop_assert_eq!(&rerun.cov, &run.cov);
        prop_assert_eq!(rerun.elapsed, run.elapsed);
        prop_assert_eq!(rerun.log, run.log);
        prop_assert_eq!(restats, stats);
    }
}
