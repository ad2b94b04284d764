//! Data-plane resource accounting: the static rules CherryPick installs and
//! the edge-coloring view of core-link ID assignment.
//!
//! The paper's claims checked here:
//! - "The number of rules at switch grows linearly over switch port
//!   density" (fat-tree);
//! - "We need two rules per ingress port ... thus still keeping low switch
//!   rule overheads" (VL2);
//! - core-link IDs can be assigned by edge coloring \[13\] so that pods share
//!   a small ID space.

use pathdump_topology::coloring::verify_coloring;
use pathdump_topology::{color_bipartite_multigraph, FatTree, SwitchId, UpDownRouting, Vl2};

/// Static tagging-rule footprint of one switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleCount {
    /// Rules that flip parity / push the ingress-link ID (two per
    /// switch-facing ingress port: parity 0 and parity 1).
    pub tagging: usize,
    /// The table-miss rule punting ≥3-tag packets to the controller.
    pub punt: usize,
}

impl RuleCount {
    /// Total rules attributable to PathDump on this switch.
    pub fn total(&self) -> usize {
        self.tagging + self.punt
    }
}

/// Tagging-rule footprint for every switch of a fat-tree.
pub fn fattree_rule_counts(ft: &FatTree) -> Vec<(SwitchId, RuleCount)> {
    ft.topology()
        .switches
        .iter()
        .map(|sw| {
            let switch_facing = sw
                .ports
                .iter()
                .filter(|p| matches!(p, pathdump_topology::Peer::Switch { .. }))
                .count();
            (
                sw.id,
                RuleCount {
                    tagging: 2 * switch_facing,
                    punt: 1,
                },
            )
        })
        .collect()
}

/// Tagging-rule footprint for every switch of a VL2 network.
pub fn vl2_rule_counts(v: &Vl2) -> Vec<(SwitchId, RuleCount)> {
    v.topology()
        .switches
        .iter()
        .map(|sw| {
            let switch_facing = sw
                .ports
                .iter()
                .filter(|p| matches!(p, pathdump_topology::Peer::Switch { .. }))
                .count();
            (
                sw.id,
                RuleCount {
                    tagging: 2 * switch_facing,
                    punt: 1,
                },
            )
        })
        .collect()
}

/// Runs the real bipartite edge-coloring over one pod's aggregate↔core
/// links and verifies it is proper with exactly `k/2` colors — the formal
/// justification for sharing the per-pod core-link ID space (§3.1).
///
/// Returns the colors indexed by (agg position, core offset).
pub fn pod_core_coloring(ft: &FatTree) -> Vec<Vec<u32>> {
    let half = ft.half();
    // Left vertices: aggregate positions; right: cores. Every aggregate
    // position a links to cores a*half..a*half+half.
    let mut edges = Vec::new();
    for a in 0..half {
        for c in 0..half {
            edges.push((a, ft.core_index(a, c)));
        }
    }
    let colors = color_bipartite_multigraph(half, half * half, &edges);
    verify_coloring(half, half * half, &edges, &colors).expect("coloring must be proper");
    let mut by_pos = vec![vec![0u32; half]; half];
    for (i, &(a, j)) in edges.iter().enumerate() {
        by_pos[a][j % half] = colors[i];
    }
    by_pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FatTreeParams, Tier, Vl2Params};

    #[test]
    fn fattree_rules_linear_in_ports() {
        for k in [4usize, 8, 16] {
            let ft = FatTree::build(FatTreeParams { k: k as u16 });
            let counts = fattree_rule_counts(&ft);
            for (sw, rc) in counts {
                let (tier, _, _) = ft.coords(sw);
                let expected_ports = match tier {
                    Tier::Tor => k / 2, // agg-facing only
                    Tier::Agg => k,     // ToR- and core-facing
                    Tier::Core => k,    // all agg-facing
                };
                assert_eq!(rc.tagging, 2 * expected_ports, "{sw} at k={k}");
                assert_eq!(rc.punt, 1);
                // Linear in port density: never more than 2k + 1.
                assert!(rc.total() <= 2 * k + 1);
            }
        }
    }

    #[test]
    fn vl2_two_rules_per_ingress_port() {
        let v = Vl2::build(Vl2Params {
            da: 8,
            di: 4,
            hosts_per_tor: 2,
        });
        for (sw, rc) in vl2_rule_counts(&v) {
            let switch_facing = v.topology().switch_neighbors(sw).len();
            assert_eq!(rc.tagging, 2 * switch_facing);
        }
    }

    #[test]
    fn pod_coloring_uses_half_colors() {
        let ft = FatTree::build(FatTreeParams { k: 8 });
        let colors = pod_core_coloring(&ft);
        let half = ft.half();
        // Each aggregate position sees `half` distinct colors.
        for row in &colors {
            let mut seen: Vec<u32> = row.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), half);
            assert!(row.iter().all(|&c| (c as usize) < half));
        }
    }

    #[test]
    fn total_footprint_small() {
        // Sanity: PathDump's rule footprint on a k=4 fat-tree is tens of
        // rules per switch, far below commodity TCAM sizes.
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let total: usize = fattree_rule_counts(&ft)
            .iter()
            .map(|(_, rc)| rc.total())
            .sum();
        assert!(total < 20 * ft.topology().num_switches());
    }
}
