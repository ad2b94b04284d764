//! Figure 4: path conformance check under link failure + failover.

use pathdump_apps::conformance::{violations, ConformancePolicy};
use pathdump_apps::Testbed;
use pathdump_bench::{banner, reject_args};
use pathdump_core::WorldConfig;
use pathdump_simnet::{Quirk, SimConfig};
use pathdump_topology::Nanos;

fn main() {
    reject_args();
    banner(
        "Figure 4",
        "Path conformance check under failover",
        "the agent detects the >4-hop failover path in real time and \
         alerts the controller with the flow key and trajectory",
    );
    let mut tb = Testbed::fattree(6, SimConfig::default(), WorldConfig::default());
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(0, 1, 0));
    ConformancePolicy {
        max_hops: Some(4),
        ..ConformancePolicy::default()
    }
    .install(&mut tb.sim.world, &[dst]);
    println!(
        "scenario: intra-pod flow {}->{}; link Agg(0,0)-ToR(0,1) fails; \
         flows pinned via Agg(0,0)",
        src, dst
    );
    tb.sim.set_link_down(tb.ft.agg(0, 0), tb.ft.tor(0, 1), true);
    let entry = tb.ft.tor(0, 0);
    let port = tb.sim.link_port(entry, tb.ft.agg(0, 0));
    for sport in 9000..9008u16 {
        let flow = tb.flow(src, dst, sport);
        tb.sim
            .install_quirk(entry, Quirk::ForwardFlowTo { flow, port });
        tb.add_flow(src, dst, sport, 20_000, Nanos::ZERO);
    }
    tb.sim.run_until(Nanos::from_secs(10));
    let alarms = tb.sim.world.drain_alarms();
    let v = violations(&alarms);
    println!("PC_FAIL alarms raised: {}", v.len());
    for a in v.iter().take(4) {
        println!(
            "  flow {}  trajectory {}  ({} hops > 4 allowed)  t={}",
            a.flow,
            a.paths[0],
            a.paths[0].num_hops(),
            a.at
        );
    }
    assert!(!v.is_empty(), "reproduction failed: no violation detected");
    println!("result: violation detected at the destination edge in real time");
}
