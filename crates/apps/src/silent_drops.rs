//! Silent random packet-drop localization (§2.3, §4.3, Figures 7–8).
//!
//! Faulty interfaces drop packets at random without updating any visible
//! counter. PathDump localizes them from the edge: hosts raise `POOR_PERF`
//! alarms for flows with repeated retransmissions; per alarm the controller
//! pulls the victim flow's path(s) from the destination TIB (a *failure
//! signature*) and feeds the accumulated signatures to the MAX-COVERAGE
//! algorithm of Kompella et al. \[23\] — "implemented as only about 50 lines
//! of Python" in the paper, a few dozen lines of Rust here.

use pathdump_core::{PathDumpWorld, Query, Reason, Response};
use pathdump_rpc::execute;
use pathdump_topology::{HostId, LinkDir, Nanos, Path, TimeRange};
use std::collections::{HashMap, HashSet};

/// Greedy MAX-COVERAGE localization over failure signatures.
///
/// Each signature is the path (set of directed links) of one flow observed
/// to suffer; the algorithm repeatedly picks the link covering the most
/// uncovered signatures until all are covered. Links picked early explain
/// the most failures — with enough signatures the true faulty links
/// dominate.
#[derive(Clone, Debug, Default)]
pub struct MaxCoverage {
    signatures: Vec<Path>,
}

impl MaxCoverage {
    /// Creates an empty instance.
    pub fn new() -> Self {
        MaxCoverage::default()
    }

    /// Adds one failure signature (a suffering flow's path).
    pub fn add_signature(&mut self, path: Path) {
        if !path.is_empty() {
            self.signatures.push(path);
        }
    }

    /// Number of accumulated signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when no signatures have been collected.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Runs the greedy set cover; returns the hypothesis set of faulty
    /// links, most-suspect first.
    pub fn localize(&self) -> Vec<LinkDir> {
        let mut uncovered: Vec<HashSet<LinkDir>> = self
            .signatures
            .iter()
            .map(|p| p.links().collect())
            .collect();
        let mut picked = Vec::new();
        while uncovered.iter().any(|s| !s.is_empty()) {
            // Count coverage per candidate link.
            let mut count: HashMap<LinkDir, usize> = HashMap::new();
            for sig in &uncovered {
                for l in sig {
                    *count.entry(*l).or_insert(0) += 1;
                }
            }
            // Deterministic tie-break: highest count, then canonical order.
            let Some((&best, _)) = count
                .iter()
                .max_by_key(|(l, c)| (**c, std::cmp::Reverse((l.from.0, l.to.0))))
            else {
                break;
            };
            picked.push(best);
            for sig in &mut uncovered {
                if sig.contains(&best) {
                    sig.clear();
                }
            }
        }
        picked
    }
}

/// Accuracy of a localization against ground truth (Figure 7's metrics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accuracy {
    /// `TP / (TP + FN)`.
    pub recall: f64,
    /// `TP / (TP + FP)`.
    pub precision: f64,
}

/// Scores a hypothesis set against the ground-truth faulty links.
///
/// Links are compared *directed*: a faulty egress interface is the `from →
/// to` direction, and failure signatures record traversal direction.
pub fn score(hypothesis: &[LinkDir], truth: &[LinkDir]) -> Accuracy {
    let truth_set: HashSet<(u16, u16)> = truth
        .iter()
        .map(|l| {
            let (a, b) = (l.from.0, l.to.0);
            (a, b)
        })
        .collect();
    let tp = hypothesis
        .iter()
        .filter(|l| truth_set.contains(&(l.from.0, l.to.0)))
        .count() as f64;
    let fp = hypothesis.len() as f64 - tp;
    let fnn = truth.len() as f64 - tp;
    Accuracy {
        recall: if truth.is_empty() {
            1.0
        } else {
            tp / (tp + fnn)
        },
        precision: if hypothesis.is_empty() {
            0.0
        } else {
            tp / (tp + fp)
        },
    }
}

/// The controller-side debugging application: consumes `POOR_PERF` alarms,
/// fetches failure signatures from destination TIBs, and maintains the
/// localization.
#[derive(Debug, Default)]
pub struct SilentDropLocalizer {
    /// The accumulated MAX-COVERAGE state.
    pub coverage: MaxCoverage,
    /// (time, accuracy-history) samples, one per processed alarm batch.
    pub history: Vec<(Nanos, usize)>,
}

impl SilentDropLocalizer {
    /// Creates the application.
    pub fn new() -> Self {
        SilentDropLocalizer::default()
    }

    /// Processes pending alarms: for each `POOR_PERF` alarm, queries the
    /// destination host for the flow's paths since `since` (the §2.3
    /// query: `getPaths(flowID, <*,*>, (t1, *))`) and adds them as
    /// signatures.
    pub fn process_alarms(&mut self, world: &mut PathDumpWorld, now: Nanos, since: Nanos) {
        let alarms = world.drain_alarms();
        for alarm in alarms {
            if alarm.reason != Reason::PoorPerf {
                continue;
            }
            let Some(dst) = world.fabric.topology().host_by_ip(alarm.flow.dst_ip) else {
                continue;
            };
            let q = Query::GetPaths {
                flow: alarm.flow,
                link: pathdump_topology::LinkPattern::ANY,
                range: TimeRange::since(since),
            };
            let resp = execute(world, &[dst], &q, true).response;
            if let Response::Paths(paths) = resp {
                for p in paths {
                    self.coverage.add_signature(p);
                }
            }
            self.history.push((now, self.coverage.len()));
        }
    }

    /// Current hypothesis.
    pub fn localize(&self) -> Vec<LinkDir> {
        self.coverage.localize()
    }
}

/// Helper for experiments: all hosts list of a world.
pub fn all_hosts(world: &PathDumpWorld) -> Vec<HostId> {
    (0..world.fabric.topology().num_hosts() as u32)
        .map(HostId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Testbed;
    use pathdump_simnet::FaultState;
    use pathdump_topology::SwitchId;

    fn p(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    fn l(a: u16, b: u16) -> LinkDir {
        LinkDir::new(SwitchId(a), SwitchId(b))
    }

    #[test]
    fn single_fault_localized_exactly() {
        let mut mc = MaxCoverage::new();
        // Three flows, all crossing link 1->2, different elsewhere.
        mc.add_signature(p(&[0, 1, 2, 3]));
        mc.add_signature(p(&[5, 1, 2, 6]));
        mc.add_signature(p(&[7, 1, 2, 8]));
        let hyp = mc.localize();
        assert_eq!(hyp, vec![l(1, 2)], "shared link must be picked first");
        let acc = score(&hyp, &[l(1, 2)]);
        assert_eq!(acc.recall, 1.0);
        assert_eq!(acc.precision, 1.0);
    }

    #[test]
    fn two_faults_need_two_picks() {
        let mut mc = MaxCoverage::new();
        mc.add_signature(p(&[0, 1, 2]));
        mc.add_signature(p(&[0, 1, 2]));
        mc.add_signature(p(&[5, 6, 7]));
        let hyp = mc.localize();
        assert_eq!(hyp.len(), 2, "disjoint signatures force two links");
        let acc = score(&hyp, &[l(0, 1), l(6, 7)]);
        assert!(acc.recall >= 0.5);
    }

    #[test]
    fn few_signatures_give_low_precision() {
        let mut mc = MaxCoverage::new();
        // One signature: every link on it is an equally good explanation;
        // greedy picks one, which may be wrong.
        mc.add_signature(p(&[0, 1, 2, 3]));
        let hyp = mc.localize();
        assert_eq!(hyp.len(), 1);
        // With truth {2->3}, a pick of (0,1) is an FP: precision <= 1.
        let acc = score(&hyp, &[l(2, 3)]);
        assert!(acc.precision <= 1.0);
    }

    #[test]
    fn score_edge_cases() {
        assert_eq!(score(&[], &[l(1, 2)]).recall, 0.0);
        assert_eq!(score(&[], &[l(1, 2)]).precision, 0.0);
        let perfect = score(&[l(1, 2)], &[l(1, 2)]);
        assert_eq!(perfect.recall, 1.0);
        assert_eq!(perfect.precision, 1.0);
        let half = score(&[l(1, 2), l(3, 4)], &[l(1, 2)]);
        assert_eq!(half.recall, 1.0);
        assert_eq!(half.precision, 0.5);
    }

    /// End-to-end: a silently dropping interface is localized from edge
    /// alarms alone (the small-scale Figure 7 experiment).
    ///
    /// The drop rate must be high enough to trip the consecutive-
    /// retransmission monitor yet below 100%, so victim flows still
    /// deliver packets and their paths land in the destination TIBs (the
    /// failure signatures MAX-COVERAGE consumes).
    #[test]
    fn localizes_injected_silent_drop() {
        let mut tb = Testbed::default_k4();
        // Faulty interface: Agg(0,0) -> ToR(0,1), 25% silent drops.
        let faulty = LinkDir::new(tb.ft.agg(0, 0), tb.ft.tor(0, 1));
        tb.sim.set_directed_fault(
            faulty.from,
            faulty.to,
            FaultState {
                silent_drop_rate: 0.25,
                ..FaultState::HEALTHY
            },
        );
        // Long-lived flows into rack (0,1), one per remote rack, staggered
        // to keep congestion (and therefore alarm noise) low. Roughly half
        // are ECMP-hashed across the faulty interface.
        let mut sport = 7000;
        for spod in [1usize, 2, 3] {
            for t in 0..2 {
                let src = tb.ft.host(spod, t, 0);
                for hdst in 0..2 {
                    let dst = tb.ft.host(0, 1, hdst);
                    let start = Nanos::from_millis(100 * (sport - 7000) as u64);
                    tb.add_flow(src, dst, sport, 2_000_000, start);
                    sport += 1;
                }
            }
        }
        let mut app = SilentDropLocalizer::new();
        // Drive the run in 200ms steps, processing alarms as they appear.
        for step in 1..=150u64 {
            let t = Nanos::from_millis(200 * step);
            tb.sim.run_until(t);
            app.process_alarms(&mut tb.sim.world, t, Nanos::ZERO);
        }
        assert!(
            !app.coverage.is_empty(),
            "retransmitting flows must produce signatures"
        );
        let hyp = app.localize();
        let acc = score(&hyp, &[faulty]);
        assert!(
            acc.recall >= 1.0,
            "the faulty link must be in the hypothesis: {hyp:?} ({} signatures)",
            app.coverage.len()
        );
    }
}
