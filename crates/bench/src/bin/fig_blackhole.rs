//! §4.4: blackhole diagnosis — search-space reduction from 10 switches to
//! 3 (aggregate–core blackhole) or 4 (ToR–aggregate blackhole).

use pathdump_apps::blackhole::diagnose;
use pathdump_apps::Testbed;
use pathdump_bench::{banner, reject_args};
use pathdump_core::WorldConfig;
use pathdump_simnet::{FaultState, LoadBalance, SimConfig};
use pathdump_topology::{Nanos, SwitchId, TimeRange, UpDownRouting};

fn run_case(
    label: &str,
    fault: (SwitchId, SwitchId),
    expected_missing: usize,
    paper_suspects: usize,
) {
    let mut tb = Testbed::fattree(4, SimConfig::default(), WorldConfig::default());
    tb.sim.set_lb_all(LoadBalance::Spray);
    tb.add_web_traffic(0.2, Nanos::from_secs(5), 7);
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let flow = tb.flow(src, dst, 7700);
    for (x, y) in [fault, (fault.1, fault.0)] {
        tb.sim.set_directed_fault(
            x,
            y,
            FaultState {
                blackhole: true,
                ..FaultState::HEALTHY
            },
        );
    }
    // The paper's 100 KB sprayed TCP flow.
    tb.add_flow(src, dst, 7700, 100_000, Nanos::ZERO);
    tb.sim.run_until(Nanos::from_secs(15));
    let expected = tb.ft.all_paths(src, dst);
    let total_switches: std::collections::HashSet<SwitchId> =
        expected.iter().flat_map(|p| p.0.iter().copied()).collect();
    let report = diagnose(&mut tb.sim.world, flow, expected, TimeRange::ANY);
    println!("\ncase: {label}");
    println!(
        "  expected equal-cost paths: 4 ({} switches total)",
        total_switches.len()
    );
    println!("  paths observed in dst TIB: {}", report.observed.len());
    println!(
        "  missing paths: {} (expected {expected_missing})",
        report.missing.len()
    );
    println!(
        "  suspects: {:?} ({} switches; paper narrows to {paper_suspects})",
        report.suspects,
        report.suspects.len()
    );
    assert_eq!(
        report.missing.len(),
        expected_missing,
        "reproduction failed"
    );
    assert_eq!(report.suspects.len(), paper_suspects, "reproduction failed");
}

fn main() {
    reject_args();
    banner(
        "§4.4",
        "Blackhole diagnosis under packet spraying",
        "agg-core blackhole: 1 missing subflow -> 3 suspects of 10; \
         ToR-agg blackhole: 2 missing subflows -> 4 common suspects",
    );
    // Build one testbed just to name switches (cases build their own).
    let tb = Testbed::fattree(4, SimConfig::default(), WorldConfig::default());
    let (agg, core) = (tb.ft.agg(0, 0), tb.ft.core(0));
    let (tor, agg2) = (tb.ft.tor(0, 0), tb.ft.agg(0, 0));
    drop(tb);
    run_case("blackhole at aggregate-core link", (agg, core), 1, 3);
    run_case(
        "blackhole at ToR-aggregate link (source pod)",
        (tor, agg2),
        2,
        4,
    );
    println!("\nresult: debugging search space reduced exactly as in §4.4");
}
