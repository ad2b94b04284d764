//! The switch-side sampling rules, as [`TagPolicy`] implementations.
//!
//! CherryPick samples "one link every two hops" (§3.1). Mechanically, each
//! switch flips the hop-parity bit carried in the packet's DSCP field and —
//! on every *even* switch along the trajectory — pushes the ID of its
//! ingress link (the Figure 9 behaviour: "a VLAN tag whose value is an ID
//! for link S2–S3 appended by S3"). Everything is expressible as two static
//! OpenFlow rules per ingress port ("one for checking if DSCP field is
//! unused, and the other to add VLAN tag otherwise"), installed once at
//! controller start-up; see [`crate::rules`] for the accounting.
//!
//! Consequences on a fat-tree (`host` hops excluded, switches numbered from
//! 1):
//! - intra-rack: 1 switch, no tag;
//! - intra-pod shortest (ToR–Agg–ToR): one class-A tag pushed by the
//!   aggregate — its ingress ToR→Agg link;
//! - inter-pod shortest (5 switches): class-A tag at the source aggregate +
//!   class-B tag at the destination-pod aggregate (its ingress core link):
//!   two tags, within the QinQ ASIC limit;
//! - each 2-hop detour adds one tag; a third tag makes the next switch punt
//!   the packet to the controller — the "instant trap" used for routing
//!   loops, and the slow path that still recovers paths the 2-tag budget
//!   cannot carry in-band. This is a deviation: the paper hand-tunes its
//!   fat-tree rules per switch position, these sample uniformly on hop
//!   parity, which costs the smallest loops one extra controller visit
//!   (Figure 9).
//!
//! On VL2 the first sample (always the source ToR→aggregate uplink) rides
//! in the DSCP field; later samples use VLAN tags.

use crate::ids::{FatTreeIds, Vl2Ids};
use pathdump_simnet::{TagHeaders, TagPolicy};
use pathdump_topology::{FatTree, Peer, PortNo, SwitchId, UpDownRouting, Vl2};

/// CherryPick sampling rules for a fat-tree.
#[derive(Clone, Debug)]
pub struct FatTreeCherryPick {
    ft: FatTree,
    ids: FatTreeIds,
}

impl FatTreeCherryPick {
    /// Builds the policy for a topology.
    pub fn new(ft: FatTree) -> Self {
        let ids = FatTreeIds::for_topology(&ft);
        FatTreeCherryPick { ft, ids }
    }

    /// The link-ID codec in use.
    pub fn ids(&self) -> FatTreeIds {
        self.ids
    }

    /// The topology the rules were generated for.
    pub fn fattree(&self) -> &FatTree {
        &self.ft
    }
}

impl TagPolicy for FatTreeCherryPick {
    fn on_forward(
        &self,
        sw: SwitchId,
        in_port: Option<PortNo>,
        _out_port: PortNo,
        headers: &mut TagHeaders,
    ) {
        // Rule pair per ingress port: flip parity; on even switches push the
        // ingress-link ID.
        let odd = headers.toggle_parity();
        if odd {
            return;
        }
        let Some(in_port) = in_port else {
            // Controller packet-out: ingress link unknown, nothing to push.
            return;
        };
        if let Peer::Switch { sw: neighbor, .. } = self.ft.topology().peer(sw, in_port) {
            if let Some(tag) = self.ids.ingress_tag(&self.ft, neighbor, sw) {
                headers.push_tag(tag);
            }
        }
    }
}

/// CherryPick sampling rules for VL2.
#[derive(Clone, Debug)]
pub struct Vl2CherryPick {
    v: Vl2,
    ids: Vl2Ids,
}

impl Vl2CherryPick {
    /// Builds the policy for a topology.
    pub fn new(v: Vl2) -> Self {
        let ids = Vl2Ids::for_topology(&v);
        Vl2CherryPick { v, ids }
    }

    /// The link-ID codec in use.
    pub fn ids(&self) -> Vl2Ids {
        self.ids
    }

    /// The topology the rules were generated for.
    pub fn vl2(&self) -> &Vl2 {
        &self.v
    }
}

impl TagPolicy for Vl2CherryPick {
    fn on_forward(
        &self,
        sw: SwitchId,
        in_port: Option<PortNo>,
        _out_port: PortNo,
        headers: &mut TagHeaders,
    ) {
        let odd = headers.toggle_parity();
        if odd {
            return;
        }
        let Some(in_port) = in_port else {
            return;
        };
        let Peer::Switch { sw: neighbor, .. } = self.v.topology().peer(sw, in_port) else {
            return;
        };
        // First sample: if the ingress is a ToR->Agg uplink and the DSCP
        // sample field is unused, spend it (pod-local slot); otherwise fall
        // back to a VLAN tag. This is exactly the paper's two-rules-per-
        // ingress-port scheme.
        use pathdump_topology::Tier;
        let (nt, np) = (self.v.coords(neighbor), self.v.coords(sw));
        if headers.dscp_sample().is_none() {
            if let ((Tier::Tor, tor), (Tier::Agg, agg)) = (nt, np) {
                if let Some(slot) = self.ids.slot_of(&self.v, tor, agg) {
                    headers.set_dscp_sample(slot as u8);
                    return;
                }
            }
        }
        if let Some(tag) = self.ids.ingress_tag(&self.v, neighbor, sw) {
            headers.push_tag(tag);
        }
    }
}

/// Walks a switch path applying a tag policy exactly as the dataplane
/// would, returning the resulting headers. Test/diagnostic helper: lets
/// unit tests exercise sampling without running the full simulator.
pub fn tags_for_walk<P, R>(policy: &P, routing: &R, path: &[SwitchId]) -> TagHeaders
where
    P: TagPolicy,
    R: pathdump_topology::UpDownRouting + ?Sized,
{
    let topo = routing.topology();
    let mut headers = TagHeaders::default();
    for (i, &sw) in path.iter().enumerate() {
        let in_port = if i == 0 {
            // First switch: ingress from a host port; any host-facing port
            // stands in (the policy only needs to see a non-switch peer).
            topo.switch(sw)
                .ports
                .iter()
                .position(|p| matches!(p, Peer::Host(_)))
                .map(|p| PortNo(p as u8))
        } else {
            topo.switch(sw).port_towards(path[i - 1])
        };
        // Egress is irrelevant to the sampling decision; use port 0.
        policy.on_forward(sw, in_port, PortNo(0), &mut headers);
    }
    headers
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FatTreeParams, UpDownRouting, Vl2Params};

    fn ft4() -> FatTree {
        FatTree::build(FatTreeParams { k: 4 })
    }

    #[test]
    fn intra_rack_no_tags() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        let h = tags_for_walk(&p, &ft, &[ft.tor(0, 0)]);
        assert_eq!(h.tag_count(), 0);
        assert!(h.parity(), "one switch flips parity once");
    }

    #[test]
    fn intra_pod_one_class_a_tag() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        let path = [ft.tor(0, 0), ft.agg(0, 1), ft.tor(0, 1)];
        let h = tags_for_walk(&p, &ft, &path);
        assert_eq!(h.tags, vec![p.ids().tor_agg(0, 1)]);
    }

    #[test]
    fn inter_pod_two_tags() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        // tor(0,0) -> agg(0,1) -> core(3) -> agg(2,1) -> tor(2,0).
        let path = [
            ft.tor(0, 0),
            ft.agg(0, 1),
            ft.core(3),
            ft.agg(2, 1),
            ft.tor(2, 0),
        ];
        let h = tags_for_walk(&p, &ft, &path);
        assert_eq!(
            h.tags,
            vec![p.ids().tor_agg(0, 1), p.ids().agg_core(3)],
            "source agg samples its ToR link; dst-pod agg samples its core link"
        );
        assert!(h.parity(), "5 switches leave parity odd");
    }

    #[test]
    fn detour_adds_one_tag_per_two_hops() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        // Intra-pod 2-hop detour: tor(0,0) agg(0,0) tor(0,1)... say the
        // agg->tor(0,1) link failed after arrival: tor(0,0) agg(0,0)
        // tor(0,1)? No: bounce shape is tor-agg-tor-agg-tor.
        let path = [
            ft.tor(0, 0),
            ft.agg(0, 0),
            ft.tor(0, 1),
            ft.agg(0, 1),
            ft.tor(0, 1),
        ];
        let h = tags_for_walk(&p, &ft, &path);
        assert_eq!(h.tags, vec![p.ids().tor_agg(0, 0), p.ids().tor_agg(1, 1)]);
    }

    #[test]
    fn six_switches_would_push_three_tags() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        // Inter-pod with a down-path bounce: 7 switches, pushes at 2,4,6.
        let path = [
            ft.tor(0, 0),
            ft.agg(0, 0),
            ft.core(0),
            ft.agg(1, 0),
            ft.tor(1, 0),
            ft.agg(1, 1),
            ft.tor(1, 1),
        ];
        let h = tags_for_walk(&p, &ft, &path);
        assert_eq!(h.tag_count(), 3, "the third tag is what triggers the punt");
    }

    #[test]
    fn vl2_shortest_uses_dscp_plus_one_vlan() {
        let v = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let p = Vl2CherryPick::new(v.clone());
        // ToR0 (aggs 0,1) -> int -> ToR1 (aggs 2,3).
        let path = [v.tor(0), v.agg(1), v.int(0), v.agg(2), v.tor(1)];
        let h = tags_for_walk(&p, &v, &path);
        assert_eq!(h.dscp_sample(), Some(1), "uplink slot 1 rides in DSCP");
        assert_eq!(h.tags, vec![p.ids().agg_int(0, 2)]);
    }

    #[test]
    fn vl2_shared_agg_path_uses_only_dscp() {
        let v = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let p = Vl2CherryPick::new(v.clone());
        // ToR0 and ToR2 share aggs (0,1).
        let path = [v.tor(0), v.agg(0), v.tor(2)];
        let h = tags_for_walk(&p, &v, &path);
        assert_eq!(h.dscp_sample(), Some(0));
        assert_eq!(h.tag_count(), 0);
    }

    #[test]
    fn vl2_detour_falls_back_to_vlan_for_tor_links() {
        let v = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let p = Vl2CherryPick::new(v.clone());
        // A bounce that crosses a second ToR uplink after DSCP is spent:
        // tor0 -> agg0 -> tor2 -> agg1 -> tor... (ToR2's slot for agg1?
        // ToR2 attaches aggs (0,1), so tor2->agg1 is slot 1.)
        let path = [v.tor(0), v.agg(0), v.tor(2), v.agg(1), v.tor(2)];
        let h = tags_for_walk(&p, &v, &path);
        assert_eq!(h.dscp_sample(), Some(0), "first sample in DSCP");
        assert_eq!(
            h.tags,
            vec![p.ids().tor_agg(2, 1)],
            "second ToR-link sample must use a VLAN tag"
        );
    }

    #[test]
    fn parity_resets_after_strip() {
        let ft = ft4();
        let p = FatTreeCherryPick::new(ft.clone());
        let path = [ft.tor(0, 0), ft.agg(0, 1), ft.tor(0, 1)];
        let mut h = tags_for_walk(&p, &ft, &path);
        h.strip();
        assert!(!h.parity());
        assert_eq!(h.tag_count(), 0);
    }

    #[test]
    fn all_shortest_paths_stay_within_two_tags() {
        let ft = FatTree::build(FatTreeParams { k: 8 });
        let p = FatTreeCherryPick::new(ft.clone());
        let hosts = [
            ft.host(0, 0, 0),
            ft.host(0, 1, 1),
            ft.host(3, 2, 0),
            ft.host(7, 3, 3),
        ];
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                for path in ft.all_paths(a, b) {
                    let h = tags_for_walk(&p, &ft, &path.0);
                    assert!(
                        h.tag_count() <= 2,
                        "shortest path {path} used {} tags",
                        h.tag_count()
                    );
                }
            }
        }
    }
}
