//! Failure injection and switch quirks.
//!
//! Every anomaly the paper debugs is injected here: link failures (Fig. 4),
//! deliberately skewed load balancing (Figs. 5/6), silent random drops
//! (Figs. 7/8), blackholes (§4.4), and forwarding misconfigurations that
//! create routing loops (Fig. 9).

use pathdump_topology::{FlowId, PortNo, RouteTables, SwitchId};

/// Fault state of one *directed* link egress (switch port or host NIC).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultState {
    /// Link administratively/physically down. Routing avoids it; packets
    /// already queued are dropped (visible to counters).
    pub down: bool,
    /// Probability that the egress interface silently discards a packet
    /// *without* updating the discarded-packet counters (§2.3 "silent
    /// random packet drops").
    pub silent_drop_rate: f64,
    /// Silently drop every packet (a blackholed link, §4.4).
    pub blackhole: bool,
}

impl FaultState {
    /// A healthy link.
    pub const HEALTHY: FaultState = FaultState {
        down: false,
        silent_drop_rate: 0.0,
        blackhole: false,
    };

    /// Returns true if this link can be used by forwarding.
    pub fn usable(&self) -> bool {
        !self.down
    }
}

/// How a switch picks one egress among equal-cost candidates.
#[derive(Clone, Debug, Default)]
pub enum LoadBalance {
    /// Flow-level ECMP: FNV hash of the 5-tuple with a per-switch salt.
    #[default]
    Ecmp,
    /// Per-packet spraying, uniform among candidates (§4.2).
    Spray,
    /// Per-packet spraying with per-candidate weights — the deliberately
    /// imbalanced configuration of Figure 6. Weights align positionally
    /// with the candidate list.
    WeightedSpray(Vec<u32>),
}

/// A forwarding misbehavior installed on one switch.
#[derive(Clone, Debug, PartialEq)]
pub enum Quirk {
    /// Force packets of a specific flow out of a fixed port — the building
    /// block for routing-loop scenarios (Fig. 9) and targeted reroutes.
    ForwardFlowTo {
        /// The affected flow.
        flow: FlowId,
        /// Egress override.
        port: PortNo,
    },
    /// Force *all* transit packets out of a fixed port.
    ForwardAllTo {
        /// Egress override.
        port: PortNo,
    },
    /// The Figure 5 "poor hash function": flows larger than `threshold`
    /// bytes all hash onto `big_port`, the rest onto `small_port`.
    /// (The paper configures its SAgg testbed switch exactly this way.)
    SizeBasedSplit {
        /// Flow-size threshold in bytes (1 MB in the paper).
        threshold: u64,
        /// Egress for large flows ("link 1").
        big_port: PortNo,
        /// Egress for small flows ("link 2").
        small_port: PortNo,
    },
}

/// A *route-table* misconfiguration: a persistent edit of the installed
/// forwarding rules, as opposed to [`Quirk`]s (per-packet egress overrides)
/// and [`FaultState`]s (per-link health).
///
/// Misconfigurations rewrite the candidate sets the switch consults, so
/// they are visible to static analysis (`pathdump_verifier`) — the point of
/// the differential tests: the verifier must flag the same rule the
/// dataplane then misbehaves on. They deliberately do *not* touch fault
/// state or drop accounting: a packet misrouted by a bad rule that then
/// dies on a faulty link is logged exactly once, by the fault machinery.
#[derive(Clone, Debug, PartialEq)]
pub enum Misconfig {
    /// Replace the rule at `sw` toward `dst_tor` with the single `port` —
    /// e.g. a host-facing port (misdelivery) or a wrong uplink.
    WrongPort {
        /// Switch holding the rewritten rule.
        sw: SwitchId,
        /// Destination ToR of the rule.
        dst_tor: SwitchId,
        /// The (wrong) sole candidate.
        port: PortNo,
    },
    /// Remove one member from the ECMP group at `sw` toward `dst_tor`.
    /// Pruning the last member leaves an empty rule — a blackhole the
    /// dataplane papers over with a failover bounce.
    PruneCandidate {
        /// Switch holding the pruned group.
        sw: SwitchId,
        /// Destination ToR of the rule.
        dst_tor: SwitchId,
        /// The member to remove.
        port: PortNo,
    },
    /// Transpose the rules for two destinations at one switch — swapped
    /// downlinks/uplinks after a miscabled maintenance window.
    SwapRules {
        /// Switch holding the transposed rules.
        sw: SwitchId,
        /// First destination ToR.
        dst_a: SwitchId,
        /// Second destination ToR.
        dst_b: SwitchId,
    },
    /// Point the rule at `sw` toward `dst_tor` at `wrong_port`, chosen so
    /// traffic re-ascends the fabric — the cross-pod routing-loop shape of
    /// Fig. 9 (identical mechanics to [`Misconfig::WrongPort`]; kept
    /// distinct so scenarios and verdicts name the class).
    CrossPodLoop {
        /// Switch holding the looping rule.
        sw: SwitchId,
        /// Destination ToR of the rule.
        dst_tor: SwitchId,
        /// Egress that sends traffic back up/across.
        wrong_port: PortNo,
    },
}

impl Misconfig {
    /// Applies the misconfiguration to installed route tables.
    pub fn apply(&self, tables: &mut RouteTables) {
        match *self {
            Misconfig::WrongPort { sw, dst_tor, port }
            | Misconfig::CrossPodLoop {
                sw,
                dst_tor,
                wrong_port: port,
            } => tables.set_candidates(sw, dst_tor, vec![port]),
            Misconfig::PruneCandidate { sw, dst_tor, port } => {
                tables.remove_candidate(sw, dst_tor, port);
            }
            Misconfig::SwapRules { sw, dst_a, dst_b } => tables.swap_rules(sw, dst_a, dst_b),
        }
    }

    /// The switch whose rules the misconfiguration touches.
    pub fn switch(&self) -> SwitchId {
        match *self {
            Misconfig::WrongPort { sw, .. }
            | Misconfig::PruneCandidate { sw, .. }
            | Misconfig::SwapRules { sw, .. }
            | Misconfig::CrossPodLoop { sw, .. } => sw,
        }
    }
}

/// The set of quirks installed on one switch.
#[derive(Clone, Debug, Default)]
pub struct SwitchQuirks {
    quirks: Vec<Quirk>,
}

impl SwitchQuirks {
    /// Installs a quirk (later quirks take precedence over earlier ones).
    pub fn install(&mut self, q: Quirk) {
        self.quirks.push(q);
    }

    /// Removes all quirks.
    pub fn clear(&mut self) {
        self.quirks.clear();
    }

    /// Returns true if no quirks are installed.
    pub fn is_empty(&self) -> bool {
        self.quirks.is_empty()
    }

    /// Resolves the egress override for a packet, if any quirk applies.
    ///
    /// `up_candidates` tells the size-based splitter whether the packet is
    /// at its split point (it only overrides when both of its ports are
    /// among the candidates).
    pub fn resolve(
        &self,
        flow: &FlowId,
        flow_size_hint: u64,
        candidates: &[PortNo],
    ) -> Option<PortNo> {
        for q in self.quirks.iter().rev() {
            match q {
                Quirk::ForwardFlowTo { flow: f, port } if f == flow => return Some(*port),
                Quirk::ForwardAllTo { port } => return Some(*port),
                Quirk::SizeBasedSplit {
                    threshold,
                    big_port,
                    small_port,
                } if candidates.contains(big_port) && candidates.contains(small_port) => {
                    return Some(if flow_size_hint > *threshold {
                        *big_port
                    } else {
                        *small_port
                    });
                }
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::Ip;

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    #[test]
    fn fault_defaults_healthy() {
        let f = FaultState::default();
        assert!(f.usable());
        assert_eq!(f.silent_drop_rate, 0.0);
        assert!(!f.blackhole);
    }

    #[test]
    fn flow_override_matches_exact_flow() {
        let mut q = SwitchQuirks::default();
        q.install(Quirk::ForwardFlowTo {
            flow: flow(1),
            port: PortNo(7),
        });
        assert_eq!(q.resolve(&flow(1), 0, &[]), Some(PortNo(7)));
        assert_eq!(q.resolve(&flow(2), 0, &[]), None);
    }

    #[test]
    fn size_split_honors_threshold() {
        let mut q = SwitchQuirks::default();
        q.install(Quirk::SizeBasedSplit {
            threshold: 1_000_000,
            big_port: PortNo(2),
            small_port: PortNo(3),
        });
        let cands = [PortNo(2), PortNo(3)];
        assert_eq!(q.resolve(&flow(1), 2_000_000, &cands), Some(PortNo(2)));
        assert_eq!(q.resolve(&flow(1), 999, &cands), Some(PortNo(3)));
        // Not at the split point: no override.
        assert_eq!(q.resolve(&flow(1), 2_000_000, &[PortNo(0)]), None);
    }

    #[test]
    fn misconfig_apply_edits_route_tables() {
        use pathdump_topology::{FatTree, FatTreeParams};
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut rt = RouteTables::build(&ft);
        let (t00, t10, t11, a10) = (ft.tor(0, 0), ft.tor(1, 0), ft.tor(1, 1), ft.agg(1, 0));

        let wrong = Misconfig::WrongPort {
            sw: t00,
            dst_tor: t10,
            port: PortNo(0),
        };
        assert_eq!(wrong.switch(), t00);
        wrong.apply(&mut rt);
        assert_eq!(rt.candidates_to_tor(t00, t10), &[PortNo(0)]);

        Misconfig::PruneCandidate {
            sw: t00,
            dst_tor: t11,
            port: PortNo(2),
        }
        .apply(&mut rt);
        assert_eq!(rt.candidates_to_tor(t00, t11), &[PortNo(3)]);

        let before_a = rt.candidates_to_tor(a10, t10).to_vec();
        let before_b = rt.candidates_to_tor(a10, t11).to_vec();
        Misconfig::SwapRules {
            sw: a10,
            dst_a: t10,
            dst_b: t11,
        }
        .apply(&mut rt);
        assert_eq!(rt.candidates_to_tor(a10, t10), before_b.as_slice());
        assert_eq!(rt.candidates_to_tor(a10, t11), before_a.as_slice());

        // CrossPodLoop is WrongPort mechanics under a class-specific name.
        Misconfig::CrossPodLoop {
            sw: ft.core(0),
            dst_tor: t00,
            wrong_port: PortNo(1),
        }
        .apply(&mut rt);
        assert_eq!(rt.candidates_to_tor(ft.core(0), t00), &[PortNo(1)]);
    }

    #[test]
    fn later_quirks_take_precedence() {
        let mut q = SwitchQuirks::default();
        q.install(Quirk::ForwardAllTo { port: PortNo(1) });
        q.install(Quirk::ForwardFlowTo {
            flow: flow(9),
            port: PortNo(5),
        });
        assert_eq!(q.resolve(&flow(9), 0, &[]), Some(PortNo(5)));
        assert_eq!(q.resolve(&flow(8), 0, &[]), Some(PortNo(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.resolve(&flow(9), 0, &[]), None);
    }
}
