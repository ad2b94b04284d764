//! Quickstart: build a fat-tree fabric with PathDump agents, run a few TCP
//! flows, and query the Host API of Table 1.
//!
//! Run with: `cargo run --example quickstart`

use pathdump::prelude::*;
use pathdump_apps::Testbed;

fn main() {
    // A 4-ary fat-tree testbed: CherryPick tagging rules on every switch,
    // a PathDump agent on every host.
    let mut tb = Testbed::default_k4();
    println!(
        "fabric: k=4 fat-tree, {} switches, {} hosts",
        tb.ft.topology().num_switches(),
        tb.ft.topology().num_hosts()
    );

    // Three TCP flows between pods.
    let flows = [
        (
            tb.ft.host(0, 0, 0),
            tb.ft.host(1, 0, 0),
            5000u16,
            500_000u64,
        ),
        (tb.ft.host(0, 0, 1), tb.ft.host(2, 1, 0), 5001, 200_000),
        (tb.ft.host(3, 0, 0), tb.ft.host(1, 0, 0), 5002, 80_000),
    ];
    for &(s, d, port, size) in &flows {
        tb.add_flow(s, d, port, size, Nanos::ZERO);
    }
    tb.run_and_flush(Nanos::from_secs(60));
    assert!(tb.sim.world.tcp.all_complete());
    println!("all flows completed; TIBs populated from in-band trajectories\n");

    // Host API: getPaths — which path did flow 1 take?
    let f0 = tb.flow(flows[0].0, flows[0].1, flows[0].2);
    let dst = flows[0].1;
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetPaths {
            flow: f0,
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    if let Response::Paths(paths) = &resp {
        println!("getPaths({f0}) at {dst} -> {paths:?}");
    }

    // Host API: getCount — bytes/packets of that flow.
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &[dst],
        &Query::GetCount {
            flow: f0,
            path: None,
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    if let Response::Count { bytes, pkts } = resp {
        println!("getCount({f0}) -> {bytes} bytes, {pkts} packets");
    }

    // Controller API: a cluster-wide query (getFlows on every incoming
    // link of one ToR).
    let tor = tb.ft.tor(1, 0);
    let all_hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let resp = pathdump::rpc::execute(
        &mut tb.sim.world,
        &all_hosts,
        &Query::GetFlows {
            link: LinkPattern::into(tor),
            range: TimeRange::ANY,
        },
        false,
    )
    .response;
    if let Response::Flows(fl) = resp {
        println!(
            "getFlows(<?, {tor}>) across all hosts -> {} flows",
            fl.len()
        );
        for f in fl {
            println!("  {f}");
        }
    }
}
