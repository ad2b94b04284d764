//! End-to-end: a distributed top-k over the **rpc plane**, serving each
//! agent's own `TieredTib` as a real k=4 simnet run left it (CherryPick
//! tagging, TCP web traffic, trajectory flush) — not synthetic records,
//! and not a flattened copy of the store.
//!
//! Pins two things at once:
//! - the rpc plane agrees bit-for-bit with the flat fold of every host's
//!   local answer (`execute_on_tib` + `Response::merge`) on real TIB
//!   contents;
//! - a degraded query over the same TIBs (one dead agent) still returns
//!   within deadline, accounts the dead host exactly, and its partial
//!   answer equals the fold over the covered hosts.

use pathdump::core::execute_on_tib;
use pathdump::prelude::*;

fn harvest_tibs() -> Vec<TieredTib> {
    let mut tb = Testbed::fattree(4, SimConfig::for_tests(), WorldConfig::default());
    let specs = tb.add_web_traffic(0.25, Nanos::from_secs(2), 4242);
    assert!(!specs.is_empty());
    tb.run_and_flush(Nanos::from_secs(6));
    // The plane serves the agents' stores themselves.
    let tibs: Vec<TieredTib> = tb
        .sim
        .world
        .agents
        .iter_mut()
        .map(|a| std::mem::take(&mut a.tib))
        .collect();
    assert_eq!(tibs.len(), 16, "k=4 fat-tree has 16 hosts");
    assert!(
        tibs.iter().map(|t| t.len()).sum::<usize>() >= specs.len(),
        "web traffic must leave TIB records"
    );
    tibs
}

/// Each host's local answer, indexed by host.
fn local_answers(tibs: &[TieredTib], q: &Query) -> Vec<Response> {
    tibs.iter().map(|t| execute_on_tib(t, q)).collect()
}

/// The oracle: the flat fold of the given hosts' local answers (the merge
/// is canonical, so order is irrelevant).
fn fold(q: &Query, local: &[Response], hosts: impl IntoIterator<Item = usize>) -> Response {
    let mut acc = Response::empty_for(q);
    for h in hosts {
        acc.merge(local[h].clone());
    }
    acc
}

fn run_on<C: Channel>(
    plane: &mut TreePlane<C, TieredTib>,
    q: &Query,
    fanouts: &[usize],
) -> QueryOutcome {
    let hosts: Vec<usize> = (0..16).collect();
    let id = plane.submit(q, &hosts, fanouts);
    plane.run(id).expect("deadlines guarantee completion")
}

// The name predates the single simnet event loop (this is one harvest now);
// it stays because tooling outside the repository tracks tests by name.
#[test]
fn distributed_topk_over_rpc_plane_matches_oracle_across_engines() {
    let tibs = harvest_tibs();

    let fanouts = [4usize, 2, 2];
    let queries = [
        Query::TopK {
            k: 50,
            range: TimeRange::ANY,
        },
        Query::TrafficMatrix {
            range: TimeRange::ANY,
        },
        Query::HeavyHitters {
            min_bytes: 10_000,
            range: TimeRange::ANY,
        },
    ];
    let oracles: Vec<Response> = queries
        .iter()
        .map(|q| fold(q, &local_answers(&tibs, q), 0..16))
        .collect();

    let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), tibs);
    for (q, oracle) in queries.iter().zip(&oracles) {
        let out = run_on(&mut plane, q, &fanouts);

        // Plane == flat fold, on the agents' real stores.
        assert_eq!(&out.response, oracle, "plane vs oracle: {q:?}");
        assert!(out.coverage.is_complete());
        assert!(out.deadline_met);
    }
    assert_eq!(plane.stats().decode_failures, 0);
    assert_eq!(plane.stats().protocol_errors, 0);
}

#[test]
fn degraded_topk_over_real_tibs_accounts_exactly() {
    let tibs = harvest_tibs();
    let fanouts = [4usize, 2, 2];
    let q = Query::TopK {
        k: 25,
        range: TimeRange::ANY,
    };
    let local = local_answers(&tibs, &q);

    // Kill one leaf agent (host 15 is a leaf under [4,2,2] over 16 hosts).
    let dead_host: u32 = 15;
    let mut plan = FaultPlan::none(1);
    plan.dead = vec![dead_host];
    let mut plane = TreePlane::new(
        FaultyChannel::new(MgmtNet::default(), plan),
        RpcConfig::default(),
        tibs,
    );
    let out = run_on(&mut plane, &q, &fanouts);

    assert!(out.elapsed <= plane.config().deadline);
    assert!(out.coverage.missed.contains(&dead_host));
    assert!(!out.coverage.answered.contains(&dead_host));
    let all: Vec<u32> = (0..16).collect();
    assert!(out.coverage.partitions(&all));

    // The partial answer equals the fold over exactly the covered hosts.
    let covered = out.coverage.answered.iter().map(|&h| h as usize);
    assert_eq!(out.response, fold(&q, &local, covered));
}
