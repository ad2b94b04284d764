//! Blackhole diagnosis (§4.4): reducing the debugging search space.
//!
//! Under packet spraying, a blackholed link silently kills exactly the
//! subflows routed across it. The destination TIB then *misses* the
//! records for the affected paths. Comparing the expected equal-cost path
//! set against the observed one pinpoints a handful of suspect switches
//! instead of "all 10 switches in the four paths".

use pathdump_core::{PathDumpWorld, Query, Response};
use pathdump_rpc::execute;
use pathdump_topology::{FlowId, LinkDir, LinkPattern, Path, SwitchId, TimeRange};
use std::collections::HashSet;

/// The outcome of a blackhole diagnosis.
#[derive(Clone, Debug)]
pub struct BlackholeReport {
    /// Equal-cost paths the flow was expected to use.
    pub expected: Vec<Path>,
    /// Paths actually observed in the destination TIB.
    pub observed: Vec<Path>,
    /// Expected paths with no TIB record (the victims).
    pub missing: Vec<Path>,
    /// Suspect switches, highest priority first.
    pub suspects: Vec<SwitchId>,
}

impl BlackholeReport {
    /// True when every expected path carried traffic.
    pub fn healthy(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Diagnoses a (sprayed) flow against its expected equal-cost paths using
/// only destination-TIB state.
///
/// Suspect derivation follows §4.4:
/// - one missing path → the endpoints of its links that no observed path
///   exonerates (for an agg–core blackhole this is {core, source agg,
///   destination agg} — 3 of the 10 switches);
/// - several missing paths → the switches *common to all* missing paths
///   that are not exonerated, "examined with higher priority" (for a
///   ToR–agg blackhole: 4 common switches).
pub fn diagnose(
    world: &mut PathDumpWorld,
    flow: FlowId,
    expected: Vec<Path>,
    range: TimeRange,
) -> BlackholeReport {
    let q = Query::GetPaths {
        flow,
        link: LinkPattern::ANY,
        range,
    };
    let observed = match world
        .fabric
        .topology()
        .host_by_ip(flow.dst_ip)
        .map(|dst| execute(world, &[dst], &q, true).response)
    {
        Some(Response::Paths(p)) => p,
        _ => Vec::new(),
    };
    let observed_set: HashSet<&Path> = observed.iter().collect();
    let missing: Vec<Path> = expected
        .iter()
        .filter(|p| !observed_set.contains(*p))
        .cloned()
        .collect();

    let observed_links: HashSet<LinkDir> = observed.iter().flat_map(|p| p.links()).collect();
    let suspects: Vec<SwitchId> = if missing.is_empty() {
        Vec::new()
    } else if missing.len() == 1 {
        // Endpoints of the missing path's links not seen on any working
        // path.
        let mut out = Vec::new();
        for l in missing[0].links() {
            if !observed_links.contains(&l) {
                for sw in [l.from, l.to] {
                    if !out.contains(&sw) {
                        out.push(sw);
                    }
                }
            }
        }
        out
    } else {
        // Switches common to all missing paths.
        let mut common: HashSet<SwitchId> = missing[0].0.iter().copied().collect();
        for p in &missing[1..] {
            let set: HashSet<SwitchId> = p.0.iter().copied().collect();
            common = common.intersection(&set).copied().collect();
        }
        let mut out: Vec<SwitchId> = common.into_iter().collect();
        out.sort();
        out
    };

    BlackholeReport {
        expected,
        observed,
        missing,
        suspects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Testbed;
    use pathdump_simnet::{FaultState, LoadBalance};
    use pathdump_topology::{Nanos, UpDownRouting};

    /// §4.4 case 1: blackhole at an aggregate–core link. One of the four
    /// sprayed subflows dies; the diagnosis narrows 10 switches to 3.
    #[test]
    fn agg_core_blackhole_names_three_suspects() {
        let mut tb = Testbed::default_k4();
        tb.sim.set_lb_all(LoadBalance::Spray);
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
        let flow = tb.flow(src, dst, 7700);
        // Blackhole agg(0,0) -> core(0) (and the reverse direction, so ACKs
        // for that path die too — the paper's blackhole is the link).
        let (a, c) = (tb.ft.agg(0, 0), tb.ft.core(0));
        for (x, y) in [(a, c), (c, a)] {
            tb.sim.set_directed_fault(
                x,
                y,
                FaultState {
                    blackhole: true,
                    ..FaultState::HEALTHY
                },
            );
        }
        tb.add_flow(src, dst, 7700, 100_000, Nanos::ZERO);
        tb.sim.run_until(Nanos::from_secs(15));
        let expected = tb.ft.all_paths(src, dst);
        let report = diagnose(&mut tb.sim.world, flow, expected, TimeRange::ANY);
        assert_eq!(report.missing.len(), 1, "exactly one subflow blackholed");
        assert!(report.missing[0].contains(c));
        // Three suspects: the core and the two pod aggregates at position 0.
        let mut want = vec![tb.ft.agg(0, 0), tb.ft.core(0), tb.ft.agg(1, 0)];
        want.sort();
        let mut got = report.suspects.clone();
        got.sort();
        assert_eq!(got, want, "suspects must be the 3 unexonerated switches");
    }

    /// §4.4 case 2: blackhole at a source-pod ToR–aggregate link kills two
    /// subflows; the common-switch join yields 4 prioritized suspects.
    #[test]
    fn tor_agg_blackhole_names_four_common_suspects() {
        let mut tb = Testbed::default_k4();
        tb.sim.set_lb_all(LoadBalance::Spray);
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
        let flow = tb.flow(src, dst, 7800);
        let (t, a) = (tb.ft.tor(0, 0), tb.ft.agg(0, 0));
        for (x, y) in [(t, a), (a, t)] {
            tb.sim.set_directed_fault(
                x,
                y,
                FaultState {
                    blackhole: true,
                    ..FaultState::HEALTHY
                },
            );
        }
        tb.add_flow(src, dst, 7800, 100_000, Nanos::ZERO);
        tb.sim.run_until(Nanos::from_secs(15));
        let expected = tb.ft.all_paths(src, dst);
        let report = diagnose(&mut tb.sim.world, flow, expected, TimeRange::ANY);
        assert_eq!(report.missing.len(), 2, "two subflows cross ToR->Agg(0,0)");
        // Common switches of the two missing paths: torS, agg(0,0),
        // agg(1,0), torD.
        let mut want = vec![
            tb.ft.tor(0, 0),
            tb.ft.agg(0, 0),
            tb.ft.agg(1, 0),
            tb.ft.tor(1, 0),
        ];
        want.sort();
        assert_eq!(report.suspects, want);
    }

    #[test]
    fn healthy_flow_reports_clean() {
        let mut tb = Testbed::default_k4();
        tb.sim.set_lb_all(LoadBalance::Spray);
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
        let flow = tb.flow(src, dst, 7900);
        tb.add_flow(src, dst, 7900, 200_000, Nanos::ZERO);
        tb.run_and_flush(Nanos::from_secs(15));
        let expected = tb.ft.all_paths(src, dst);
        let report = diagnose(&mut tb.sim.world, flow, expected, TimeRange::ANY);
        assert!(report.healthy(), "missing: {:?}", report.missing);
        assert!(report.suspects.is_empty());
        assert_eq!(report.observed.len(), 4);
    }
}
