//! Cross-crate integration: the Table 1 API surface, exercised end-to-end
//! through the facade crate, plus direct/multi-level mechanism agreement on
//! the rpc plane.

use pathdump::prelude::*;
use pathdump_apps::Testbed;

fn loaded() -> (Testbed, FlowId, HostId, HostId) {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(2, 1, 0));
    let flow = tb.flow(src, dst, 4242);
    tb.add_flow(src, dst, 4242, 400_000, Nanos::ZERO);
    tb.add_flow(tb.ft.host(1, 0, 0), dst, 4243, 100_000, Nanos::ZERO);
    tb.run_and_flush(Nanos::from_secs(60));
    assert!(tb.sim.world.tcp.all_complete());
    (tb, flow, src, dst)
}

#[test]
fn get_flows_get_paths_get_count_get_duration() {
    let (mut tb, flow, src, dst) = loaded();
    // getFlows over the destination ToR's incoming links.
    let tor = tb.ft.topology().host(dst).tor;
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetFlows {
            link: LinkPattern::into(tor),
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    let Response::Flows(flows) = resp else {
        panic!()
    };
    assert!(flows.contains(&flow));

    // getPaths returns a real shortest path.
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetPaths {
            flow,
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    let Response::Paths(paths) = resp else {
        panic!()
    };
    assert_eq!(paths.len(), 1);
    assert!(tb.ft.all_paths(src, dst).contains(&paths[0]));

    // getCount covers the transferred bytes.
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetCount {
            flow,
            path: Some(paths[0].clone()),
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    let Response::Count { bytes, pkts } = resp else {
        panic!()
    };
    assert!(bytes >= 400_000);
    assert!(pkts >= 400_000 / 1460);

    // getDuration is positive and below the run length.
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetDuration {
            flow,
            path: None,
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    let Response::Duration(d) = resp else {
        panic!()
    };
    assert!(d > Nanos::ZERO && d < Nanos::from_secs(60));
}

/// The store hashes with FNV inside, but `link_flow_counts` still returns
/// the `std` map with the default hasher that callers name in their own
/// signatures (`HashMap<FlowId, (u64, u64)>`): the annotation is the pin.
/// Its all-time, all-links answer is built from the store's flow table.
#[test]
fn link_flow_counts_keeps_its_std_hash_map_type() {
    let (tb, flow, _, dst) = loaded();
    let tib = &tb.sim.world.agents[dst.index()].tib;
    let counts: std::collections::HashMap<FlowId, (u64, u64)> =
        tib.link_flow_counts(LinkPattern::ANY, TimeRange::ANY);
    assert_eq!(counts[&flow], tib.get_count(flow, None, TimeRange::ANY));
    let flows = tib.get_flows(LinkPattern::ANY, TimeRange::ANY);
    assert_eq!(counts.len(), flows.len());
    assert!(flows.iter().all(|f| counts.contains_key(f)));
}

#[test]
fn get_poor_tcp_flows_via_world() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    for a in 0..2 {
        tb.sim.set_directed_fault(
            tb.ft.tor(0, 0),
            tb.ft.agg(0, a),
            FaultState {
                blackhole: true,
                ..FaultState::HEALTHY
            },
        );
    }
    let flow = tb.flow(src, dst, 4250);
    tb.add_flow(src, dst, 4250, 100_000, Nanos::ZERO);
    tb.sim.run_until(Nanos::from_secs(8));
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[src],
        &Query::GetPoorTcp { threshold: 2 },
        false,
    )
    .response;
    let Response::Flows(flows) = resp else {
        panic!()
    };
    assert_eq!(flows, vec![flow]);
}

#[test]
fn direct_and_multilevel_mechanisms_agree_on_live_data() {
    let (tb, _, _, _) = loaded();
    // Copy the populated TIBs into a query plane and compare mechanisms:
    // direct is the one-level tree, every host a root.
    let tibs: Vec<Tib> = tb
        .sim
        .world
        .agents
        .iter()
        .map(|a| {
            let mut t = Tib::new();
            for r in a.tib.records_vec() {
                t.insert(r);
            }
            t
        })
        .collect();
    let n = tibs.len();
    let cfg = RpcConfig {
        max_children_inflight: n,
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::new(Loopback::default(), cfg, tibs);
    let hosts: Vec<usize> = (0..n).collect();
    for q in [
        Query::TopK {
            k: 5,
            range: TimeRange::ANY,
        },
        Query::FlowSizeDist {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
            bin_bytes: 10_000,
        },
        Query::TrafficMatrix {
            range: TimeRange::ANY,
        },
    ] {
        let mut run = |fanouts: &[usize]| {
            let before = plane.channel().bytes_sent();
            let id = plane.submit(&q, &hosts, fanouts);
            let out = plane.run(id).expect("lossless plane completes");
            assert!(out.coverage.is_complete());
            (out.response, plane.channel().bytes_sent() - before)
        };
        let (d, d_bytes) = run(&[n]);
        let (m, m_bytes) = run(&[7, 4, 4]);
        assert_eq!(d, m, "query {q:?}");
        assert!(d_bytes > 0 && m_bytes > 0);
    }
}

/// A watch that holds while `flow` is the largest on its host.
fn top1_watch(flow: FlowId) -> StandingQuery {
    StandingQuery::new(StandingPredicate::TopKMember { flow, k: 1 })
}

#[test]
fn watch_and_unwatch_lifecycle() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let flow = tb.flow(src, dst, 4260);
    let now = tb.sim.now();
    let ids = tb.sim.world.watch(&[dst], top1_watch(flow), now);
    assert_eq!(ids.len(), 1);
    tb.add_flow(src, dst, 4260, 50_000, Nanos::ZERO);
    tb.sim.run_until(Nanos::from_secs(4));
    let events = tb.sim.world.drain_standing_events();
    assert_eq!(events.len(), 1, "one raise when the flow lands: {events:?}");
    let (host, ev) = &events[0];
    assert!(ev.raised);
    assert_eq!((*host, ev.alarm.flow), (dst, flow));

    let (host, id) = ids[0];
    assert!(tb.sim.world.unwatch(host, id));
    assert!(!tb.sim.world.unwatch(host, id), "a removed watch is gone");
    // A larger flow would push the watched one out of the top 1 and
    // clear the watch, had it not been removed.
    tb.add_flow(tb.ft.host(2, 0, 0), dst, 4261, 200_000, Nanos::ZERO);
    tb.run_and_flush(Nanos::from_secs(8));
    let events = tb.sim.world.drain_standing_events();
    assert!(
        events.is_empty(),
        "an unwatched query must stop: {events:?}"
    );
}

#[test]
fn a_repeated_host_is_watched_once() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let flow = tb.flow(src, dst, 4270);
    let now = tb.sim.now();
    let ids = tb.sim.world.watch(&[dst, dst], top1_watch(flow), now);
    assert_eq!(ids.len(), 1, "one watch per distinct host: {ids:?}");
    tb.add_flow(src, dst, 4270, 50_000, Nanos::ZERO);
    tb.sim.run_until(Nanos::from_secs(4));
    assert_eq!(tb.sim.world.drain_standing_events().len(), 1);
    let raised = tb
        .sim
        .world
        .drain_alarms()
        .into_iter()
        .filter(|a| a.reason == Reason::InvariantViolated)
        .count();
    assert_eq!(raised, 1, "one flip raises one alarm");
}

#[test]
fn a_host_without_an_agent_is_not_watched() {
    let mut tb = Testbed::default_k4();
    let dst = tb.ft.host(1, 0, 0);
    let ghost = HostId(tb.sim.world.agents.len() as u32);
    let flow = tb.flow(tb.ft.host(0, 0, 0), dst, 4280);
    let now = tb.sim.now();
    let ids = tb
        .sim
        .world
        .watch(&[ghost, dst, ghost], top1_watch(flow), now);
    let hosts: Vec<HostId> = ids.iter().map(|(h, _)| *h).collect();
    assert_eq!(hosts, vec![dst], "only hosts with an agent are watched");
    let id = ids[0].1;
    assert!(!tb.sim.world.unwatch(ghost, id));
    assert!(tb.sim.world.unwatch(dst, id));
}

/// A path-conformance invariant every fat-tree path breaks.
fn one_hop_at_most() -> Invariant {
    Invariant {
        max_hops: Some(1),
        ..Invariant::default()
    }
}

/// `PC_FAIL` alarms raised on `host`, drained from the world bus.
fn pc_fails_on(tb: &mut Testbed, host: HostId) -> usize {
    tb.sim
        .world
        .drain_alarms()
        .iter()
        .filter(|a| a.reason == Reason::PcFail && a.host == host)
        .count()
}

#[test]
fn an_invariant_skips_a_host_without_an_agent() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let ghost = HostId(tb.sim.world.agents.len() as u32);
    tb.sim
        .world
        .install_invariant(&[ghost, dst], one_hop_at_most());
    tb.add_flow(src, dst, 4290, 50_000, Nanos::ZERO);
    tb.run_and_flush(Nanos::from_secs(4));
    assert_eq!(
        pc_fails_on(&mut tb, dst),
        1,
        "the host with an agent checks"
    );
}

#[test]
fn an_invariant_is_installed_once_per_distinct_host() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let ghost = HostId(tb.sim.world.agents.len() as u32);
    let hosts = tb
        .sim
        .world
        .install_invariant(&[dst, ghost, src, dst], one_hop_at_most());
    assert_eq!(hosts, vec![dst, src], "one install per distinct host");
    tb.add_flow(src, dst, 4291, 50_000, Nanos::ZERO);
    tb.run_and_flush(Nanos::from_secs(4));
    assert_eq!(pc_fails_on(&mut tb, dst), 1);
}

/// A standing watch that first holds on a record exported only by the
/// end-of-run flush raises on the world bus, not only in the event log.
#[test]
fn a_raise_during_the_final_flush_reaches_the_alarm_bus() {
    let mut tb = Testbed::default_k4();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let flow = tb.flow(src, dst, 4292);
    let now = tb.sim.now();
    tb.sim.world.watch(&[dst], top1_watch(flow), now);
    // Still running at 300 ms: its records reach the TIB at the flush.
    tb.add_flow(src, dst, 4292, 50_000_000, Nanos::ZERO);
    tb.run_and_flush(Nanos::from_millis(300));
    let events = tb.sim.world.drain_standing_events();
    assert_eq!(events.len(), 1, "{events:?}");
    let raised: Vec<Alarm> = tb
        .sim
        .world
        .drain_alarms()
        .into_iter()
        .filter(|a| a.reason == Reason::InvariantViolated)
        .collect();
    assert_eq!(raised.len(), 1, "the flush's raise is on the bus");
    assert_eq!((raised[0].host, raised[0].flow), (dst, flow));
}
