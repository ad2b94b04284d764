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

#[test]
fn install_and_uninstall_lifecycle() {
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
    let id = tb.sim.world.install_query(
        &[src],
        Query::GetPoorTcp { threshold: 2 },
        Some(Reason::PoorPerf),
    );
    tb.add_flow(src, dst, 4260, 50_000, Nanos::ZERO);
    tb.sim.run_until(Nanos::from_secs(4));
    let before = tb.sim.world.installed_results.len();
    assert!(before > 0, "installed query must have produced results");
    tb.sim.world.uninstall_query(id);
    tb.sim.run_until(Nanos::from_secs(8));
    let after = tb.sim.world.installed_results.len();
    assert_eq!(before, after, "uninstalled query must stop executing");
}
