//! 12-bit link-identifier spaces (§3.1).
//!
//! "The number of physical links is far more than that of available link
//! IDs (4,096 unique link IDs expressed in a 12-bit VLAN identifier)" — so
//! CherryPick reuses IDs across pods for intra-pod links and compresses
//! core-link IDs via the structured wiring (equivalently, an edge coloring;
//! see [`crate::rules`] for the explicit coloring check).
//!
//! **Fat-tree** (parameter `k`, `half = k/2`):
//! - class A — ToR↔aggregate links, *pod-shared*: `id = tor_pos*half +
//!   agg_pos`, range `[0, half²)`;
//! - class B — aggregate↔core links, *pod-shared*: `id = half² + core_index`
//!   (the core index `j = agg_pos*half + offset` already encodes the
//!   aggregate position, which is the edge-coloring observation), range
//!   `[half², 2·half²)`.
//!
//! `2·half² ≤ 4096` bounds `k ≤ 90`, matching the paper's "72-port
//! switches, about 93K servers" envelope.
//!
//! **VL2** (`DA`, `DI`): the first sample (source ToR uplink) rides in the
//! DSCP field as the uplink slot; VLAN IDs cover ToR–aggregate links
//! globally (`id = tor*2 + slot`) and aggregate–intermediate links globally
//! (`id = 2·#tors + int*#aggs + agg`). At the paper's 62-port envelope this
//! is `1922 + 1922 = 3844 ≤ 4096`.

use pathdump_topology::{FatTree, SwitchId, Tier, Vl2};

/// A decoded fat-tree link tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FtTag {
    /// ToR↔aggregate link at `(tor_pos, agg_pos)` within some pod.
    TorAgg {
        /// ToR position in its pod.
        tor_pos: usize,
        /// Aggregate position in its pod.
        agg_pos: usize,
    },
    /// Aggregate↔core link identified by the core index.
    AggCore {
        /// Global core index `j`.
        core_index: usize,
    },
}

/// Fat-tree link-ID codec.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeIds {
    half: usize,
}

impl FatTreeIds {
    /// Builds the codec for a `k`-ary fat-tree.
    ///
    /// # Panics
    ///
    /// Panics if the ID space exceeds 12 bits.
    pub fn new(k: usize) -> Self {
        let half = k / 2;
        assert!(
            2 * half * half <= 4096,
            "fat-tree k={k} exceeds the 12-bit link-ID budget"
        );
        FatTreeIds { half }
    }

    /// Codec for an existing topology.
    pub fn for_topology(ft: &FatTree) -> Self {
        Self::new(ft.k())
    }

    /// Class-A ID of the ToR↔aggregate link `(tor_pos, agg_pos)`.
    pub fn tor_agg(&self, tor_pos: usize, agg_pos: usize) -> u16 {
        debug_assert!(tor_pos < self.half && agg_pos < self.half);
        (tor_pos * self.half + agg_pos) as u16
    }

    /// Class-B ID of the aggregate↔core link reaching core `core_index`.
    pub fn agg_core(&self, core_index: usize) -> u16 {
        debug_assert!(core_index < self.half * self.half);
        (self.half * self.half + core_index) as u16
    }

    /// Decodes a tag value.
    pub fn classify(&self, tag: u16) -> Option<FtTag> {
        let t = tag as usize;
        let sq = self.half * self.half;
        if t < sq {
            Some(FtTag::TorAgg {
                tor_pos: t / self.half,
                agg_pos: t % self.half,
            })
        } else if t < 2 * sq {
            Some(FtTag::AggCore { core_index: t - sq })
        } else {
            None
        }
    }

    /// The tag a switch pushes for its ingress link `from -> to`, or `None`
    /// when the pair is not a fabric link (e.g. a host port peer).
    ///
    /// The ID is direction-independent (it names the undirected link); the
    /// decoder infers direction from walk position.
    pub fn ingress_tag(&self, ft: &FatTree, from: SwitchId, to: SwitchId) -> Option<u16> {
        let (ft_from, _, pos_from) = ft.coords(from);
        let (ft_to, _, pos_to) = ft.coords(to);
        match (ft_from, ft_to) {
            (Tier::Tor, Tier::Agg) => Some(self.tor_agg(pos_from, pos_to)),
            (Tier::Agg, Tier::Tor) => Some(self.tor_agg(pos_to, pos_from)),
            (Tier::Agg, Tier::Core) => Some(self.agg_core(pos_to)),
            (Tier::Core, Tier::Agg) => Some(self.agg_core(pos_from)),
            _ => None,
        }
    }
}

/// A decoded VL2 VLAN tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Vl2Tag {
    /// ToR↔aggregate link: ToR index and uplink slot.
    TorAgg {
        /// ToR index.
        tor: usize,
        /// Uplink slot (0 or 1).
        slot: usize,
    },
    /// Aggregate↔intermediate link.
    AggInt {
        /// Intermediate index.
        int: usize,
        /// Aggregate index.
        agg: usize,
    },
}

/// VL2 link-ID codec.
#[derive(Clone, Copy, Debug)]
pub struct Vl2Ids {
    nt: usize,
    na: usize,
    ni: usize,
}

impl Vl2Ids {
    /// Builds the codec for a VL2 network.
    ///
    /// # Panics
    ///
    /// Panics if the ID space exceeds 12 bits.
    pub fn for_topology(v: &Vl2) -> Self {
        let p = v.params();
        let (nt, na, ni) = (p.num_tors(), p.num_aggs(), p.num_ints());
        assert!(
            2 * nt + na * ni <= 4096,
            "VL2 ({} ToRs, {} aggs, {} ints) exceeds the 12-bit link-ID budget",
            nt,
            na,
            ni
        );
        Vl2Ids { nt, na, ni }
    }

    /// VLAN ID of the ToR↔aggregate link at `(tor, slot)`.
    pub fn tor_agg(&self, tor: usize, slot: usize) -> u16 {
        debug_assert!(tor < self.nt && slot < 2);
        (tor * 2 + slot) as u16
    }

    /// VLAN ID of the aggregate↔intermediate link `(int, agg)`.
    pub fn agg_int(&self, int: usize, agg: usize) -> u16 {
        debug_assert!(int < self.ni && agg < self.na);
        (2 * self.nt + int * self.na + agg) as u16
    }

    /// Decodes a VLAN tag value.
    pub fn classify(&self, tag: u16) -> Option<Vl2Tag> {
        let t = tag as usize;
        if t < 2 * self.nt {
            Some(Vl2Tag::TorAgg {
                tor: t / 2,
                slot: t % 2,
            })
        } else if t < 2 * self.nt + self.na * self.ni {
            let r = t - 2 * self.nt;
            Some(Vl2Tag::AggInt {
                int: r / self.na,
                agg: r % self.na,
            })
        } else {
            None
        }
    }

    /// The VLAN tag for ingress link `from -> to`, or `None` for host links.
    pub fn ingress_tag(&self, v: &Vl2, from: SwitchId, to: SwitchId) -> Option<u16> {
        let (t_from, p_from) = v.coords(from);
        let (t_to, p_to) = v.coords(to);
        match (t_from, t_to) {
            (Tier::Tor, Tier::Agg) => Some(self.tor_agg(p_from, self.slot_of(v, p_from, p_to)?)),
            (Tier::Agg, Tier::Tor) => Some(self.tor_agg(p_to, self.slot_of(v, p_to, p_from)?)),
            (Tier::Agg, Tier::Core) => Some(self.agg_int(p_to, p_from)),
            (Tier::Core, Tier::Agg) => Some(self.agg_int(p_from, p_to)),
            _ => None,
        }
    }

    /// Which uplink slot of `tor` leads to aggregate `agg`.
    pub fn slot_of(&self, v: &Vl2, tor: usize, agg: usize) -> Option<usize> {
        let (a1, a2) = v.tor_aggs(tor);
        if agg == a1 {
            Some(0)
        } else if agg == a2 {
            Some(1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FatTreeParams, Vl2Params};

    #[test]
    fn fattree_class_ranges_disjoint() {
        let ids = FatTreeIds::new(8);
        // half = 4: class A in [0,16), class B in [16,32).
        assert_eq!(ids.tor_agg(0, 0), 0);
        assert_eq!(ids.tor_agg(3, 3), 15);
        assert_eq!(ids.agg_core(0), 16);
        assert_eq!(ids.agg_core(15), 31);
    }

    #[test]
    fn fattree_classify_roundtrip() {
        let ids = FatTreeIds::new(8);
        for t in 0..4 {
            for a in 0..4 {
                match ids.classify(ids.tor_agg(t, a)) {
                    Some(FtTag::TorAgg { tor_pos, agg_pos }) => {
                        assert_eq!((tor_pos, agg_pos), (t, a));
                    }
                    other => panic!("bad classify: {other:?}"),
                }
            }
        }
        for j in 0..16 {
            assert_eq!(
                ids.classify(ids.agg_core(j)),
                Some(FtTag::AggCore { core_index: j })
            );
        }
        assert_eq!(ids.classify(32), None);
        assert_eq!(ids.classify(4095), None);
    }

    #[test]
    fn fattree_budget_bound() {
        // k=90 fits; k=92 must panic.
        let _ = FatTreeIds::new(90);
        let r = std::panic::catch_unwind(|| FatTreeIds::new(92));
        assert!(r.is_err());
    }

    #[test]
    fn fattree_ingress_tags() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let ids = FatTreeIds::for_topology(&ft);
        // tor(0,1) <-> agg(0,0): class A (1, 0), same both directions.
        let a = ids.ingress_tag(&ft, ft.tor(0, 1), ft.agg(0, 0)).unwrap();
        let b = ids.ingress_tag(&ft, ft.agg(0, 0), ft.tor(0, 1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            ids.classify(a),
            Some(FtTag::TorAgg {
                tor_pos: 1,
                agg_pos: 0
            })
        );
        // agg(2,1) <-> core(3): class B with core index 3.
        let c = ids.ingress_tag(&ft, ft.agg(2, 1), ft.core(3)).unwrap();
        assert_eq!(ids.classify(c), Some(FtTag::AggCore { core_index: 3 }));
        // Pod-sharing: the same positions in another pod give the same ID.
        let a2 = ids.ingress_tag(&ft, ft.tor(3, 1), ft.agg(3, 0)).unwrap();
        assert_eq!(a, a2);
        // Core links are NOT pod-shared in value (same core = same ID).
        let c2 = ids.ingress_tag(&ft, ft.agg(0, 1), ft.core(3)).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn vl2_ids_roundtrip() {
        let v = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let ids = Vl2Ids::for_topology(&v);
        assert_eq!(
            ids.classify(ids.tor_agg(3, 1)),
            Some(Vl2Tag::TorAgg { tor: 3, slot: 1 })
        );
        assert_eq!(
            ids.classify(ids.agg_int(1, 2)),
            Some(Vl2Tag::AggInt { int: 1, agg: 2 })
        );
        assert_eq!(ids.classify(4000), None);
    }

    #[test]
    fn vl2_ingress_tags_direction_free() {
        let v = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let ids = Vl2Ids::for_topology(&v);
        let (a1, _) = v.tor_aggs(2);
        let x = ids.ingress_tag(&v, v.tor(2), v.agg(a1)).unwrap();
        let y = ids.ingress_tag(&v, v.agg(a1), v.tor(2)).unwrap();
        assert_eq!(x, y);
        assert_eq!(ids.classify(x), Some(Vl2Tag::TorAgg { tor: 2, slot: 0 }));
        let i = ids.ingress_tag(&v, v.agg(0), v.int(1)).unwrap();
        assert_eq!(ids.classify(i), Some(Vl2Tag::AggInt { int: 1, agg: 0 }));
    }

    #[test]
    fn vl2_paper_envelope_fits() {
        // 62-port VL2: 961 ToRs, 62 aggs, 31 ints.
        let p = Vl2Params {
            da: 62,
            di: 62,
            hosts_per_tor: 20,
        };
        assert!(2 * p.num_tors() + p.num_aggs() * p.num_ints() <= 4096);
    }
}
