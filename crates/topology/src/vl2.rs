//! VL2 topology builder (Greenberg et al., SIGCOMM'09), the second
//! structured topology the paper supports (§3.1).
//!
//! Structure for parameters `(DA, DI)`:
//! - `DA/2` **intermediate** switches with `DI` ports each (represented with
//!   [`Tier::Core`] — they are the turning points of valiant load
//!   balancing, like fat-tree cores);
//! - `DI` **aggregate** switches with `DA` ports each, forming a complete
//!   bipartite graph with the intermediates;
//! - `DI·DA/4` ToR switches, each with two uplinks to two distinct
//!   aggregates;
//! - a configurable number of hosts per ToR (the original paper uses 20).

use crate::graph::{Tier, Topology};
use crate::ids::{HostId, Ip, PortNo, SwitchId};
use crate::path::Path;
use crate::routing::UpDownRouting;

/// VL2 build parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vl2Params {
    /// Aggregate switch port count `DA` (even, >= 4).
    pub da: u16,
    /// Intermediate switch port count `DI` (even, >= 2).
    pub di: u16,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: u16,
}

impl Vl2Params {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on unsupported values.
    pub fn validate(self) {
        assert!(
            self.da >= 4 && self.da.is_multiple_of(2),
            "DA must be even and >= 4"
        );
        assert!(
            self.di >= 2 && self.di.is_multiple_of(2),
            "DI must be even and >= 2"
        );
        assert!(
            (self.da as usize * self.di as usize).is_multiple_of(4),
            "DA*DI must be divisible by 4"
        );
        assert!(self.hosts_per_tor >= 1 && self.hosts_per_tor <= 253);
        assert!(
            self.di <= 62,
            "DI > 62 exceeds the paper's 12-bit link-ID envelope for VL2"
        );
    }

    /// Number of ToR switches.
    pub fn num_tors(self) -> usize {
        self.da as usize * self.di as usize / 4
    }

    /// Number of aggregate switches.
    pub fn num_aggs(self) -> usize {
        self.di as usize
    }

    /// Number of intermediate switches.
    pub fn num_ints(self) -> usize {
        self.da as usize / 2
    }
}

/// A built VL2 network.
#[derive(Clone, Debug)]
pub struct Vl2 {
    params: Vl2Params,
    topo: Topology,
}

impl Vl2 {
    /// Builds the VL2 network for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`Vl2Params::validate`]).
    pub fn build(params: Vl2Params) -> Self {
        params.validate();
        let nt = params.num_tors();
        let na = params.num_aggs();
        let ni = params.num_ints();
        let hpt = params.hosts_per_tor as usize;
        let mut topo = Topology::new();

        for r in 0..nt {
            let id = topo.add_switch(Tier::Tor, None, r as u16, hpt + 2);
            debug_assert_eq!(id.index(), r);
        }
        for a in 0..na {
            let id = topo.add_switch(Tier::Agg, None, a as u16, params.da as usize);
            debug_assert_eq!(id.index(), nt + a);
        }
        for i in 0..ni {
            let id = topo.add_switch(Tier::Core, None, i as u16, params.di as usize);
            debug_assert_eq!(id.index(), nt + na + i);
        }

        let tor = |r: usize| SwitchId(r as u16);
        let agg = |a: usize| SwitchId((nt + a) as u16);
        let int = |i: usize| SwitchId((nt + na + i) as u16);

        // ToR uplinks: ToR r connects to aggregates (2r mod DI) and
        // (2r+1 mod DI). Aggregate down ports are filled in ToR order.
        let mut agg_down_fill = vec![0usize; na];
        for r in 0..nt {
            for (u, a) in [(2 * r) % na, (2 * r + 1) % na].into_iter().enumerate() {
                let down = agg_down_fill[a];
                agg_down_fill[a] += 1;
                topo.connect(tor(r), PortNo((hpt + u) as u8), agg(a), PortNo(down as u8));
            }
        }
        debug_assert!(agg_down_fill.iter().all(|&f| f == params.da as usize / 2));

        // Aggregate <-> intermediate: complete bipartite. Agg a port
        // (DA/2 + i) to int i port a.
        for a in 0..na {
            for i in 0..ni {
                topo.connect(
                    agg(a),
                    PortNo((params.da as usize / 2 + i) as u8),
                    int(i),
                    PortNo(a as u8),
                );
            }
        }

        // Hosts: 20.(r >> 8).(r & 255).(h + 2).
        for r in 0..nt {
            for h in 0..hpt {
                topo.add_host(
                    Ip::new(20, (r >> 8) as u8, (r & 255) as u8, (h + 2) as u8),
                    tor(r),
                    PortNo(h as u8),
                );
            }
        }
        debug_assert!(topo.validate().is_ok());
        Vl2 { params, topo }
    }

    /// The build parameters.
    pub fn params(&self) -> Vl2Params {
        self.params
    }

    /// ToR switch `r`.
    pub fn tor(&self, r: usize) -> SwitchId {
        debug_assert!(r < self.params.num_tors());
        SwitchId(r as u16)
    }

    /// Aggregate switch `a`.
    pub fn agg(&self, a: usize) -> SwitchId {
        debug_assert!(a < self.params.num_aggs());
        SwitchId((self.params.num_tors() + a) as u16)
    }

    /// Intermediate switch `i`.
    pub fn int(&self, i: usize) -> SwitchId {
        debug_assert!(i < self.params.num_ints());
        SwitchId((self.params.num_tors() + self.params.num_aggs() + i) as u16)
    }

    /// The two aggregate indices a ToR uplinks to, in uplink-slot order.
    pub fn tor_aggs(&self, r: usize) -> (usize, usize) {
        let na = self.params.num_aggs();
        ((2 * r) % na, (2 * r + 1) % na)
    }

    /// Classifies a switch ID into its VL2 role and position.
    pub fn coords(&self, sw: SwitchId) -> (Tier, usize) {
        let nt = self.params.num_tors();
        let na = self.params.num_aggs();
        let i = sw.index();
        if i < nt {
            (Tier::Tor, i)
        } else if i < nt + na {
            (Tier::Agg, i - nt)
        } else {
            (Tier::Core, i - nt - na)
        }
    }

    /// Host `h` on ToR `r`.
    pub fn host(&self, r: usize, h: usize) -> HostId {
        let hpt = self.params.hosts_per_tor as usize;
        debug_assert!(r < self.params.num_tors() && h < hpt);
        HostId((r * hpt + h) as u32)
    }

    /// Decomposes a host ID into `(tor, slot)`.
    pub fn host_coords(&self, host: HostId) -> (usize, usize) {
        let hpt = self.params.hosts_per_tor as usize;
        (host.index() / hpt, host.index() % hpt)
    }
}

impl UpDownRouting for Vl2 {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn candidates_to_tor(&self, sw: SwitchId, dst_tor: SwitchId) -> Vec<PortNo> {
        let hpt = self.params.hosts_per_tor as usize;
        let (_, dr) = {
            let (tier, pos) = self.coords(dst_tor);
            debug_assert_eq!(tier, Tier::Tor);
            (tier, pos)
        };
        let (da1, da2) = self.tor_aggs(dr);
        match self.coords(sw) {
            (Tier::Tor, r) if self.tor(r) == dst_tor => vec![],
            (Tier::Tor, _) => vec![PortNo(hpt as u8), PortNo((hpt + 1) as u8)],
            (Tier::Agg, a) if a == da1 || a == da2 => {
                vec![self
                    .topo
                    .switch(sw)
                    .port_towards(dst_tor)
                    .expect("aggregate must reach its attached ToR")]
            }
            (Tier::Agg, _) => {
                let half = self.params.da as usize / 2;
                (0..self.params.num_ints())
                    .map(|i| PortNo((half + i) as u8))
                    .collect()
            }
            (Tier::Core, _) => {
                // Intermediate: down to either of the destination ToR's
                // aggregates (ports are indexed by aggregate).
                let mut ports = vec![PortNo(da1 as u8)];
                if da2 != da1 {
                    ports.push(PortNo(da2 as u8));
                }
                ports
            }
        }
    }

    fn all_paths(&self, src: HostId, dst: HostId) -> Vec<Path> {
        let (sr, _) = self.host_coords(src);
        let (dr, _) = self.host_coords(dst);
        if src == dst {
            return vec![];
        }
        let (ts, td) = (self.tor(sr), self.tor(dr));
        if ts == td {
            return vec![Path::new(vec![ts])];
        }
        let (sa1, sa2) = self.tor_aggs(sr);
        let (da1, da2) = self.tor_aggs(dr);
        let s_aggs = if sa1 == sa2 {
            vec![sa1]
        } else {
            vec![sa1, sa2]
        };
        let d_aggs = if da1 == da2 {
            vec![da1]
        } else {
            vec![da1, da2]
        };
        // If the ToRs share an aggregate, the shortest paths turn there.
        let shared: Vec<usize> = s_aggs
            .iter()
            .copied()
            .filter(|a| d_aggs.contains(a))
            .collect();
        if !shared.is_empty() {
            return shared
                .into_iter()
                .map(|a| Path::new(vec![ts, self.agg(a), td]))
                .collect();
        }
        // Otherwise: up to any intermediate, down via either destination agg.
        let mut paths = Vec::new();
        for &ua in &s_aggs {
            for i in 0..self.params.num_ints() {
                for &dna in &d_aggs {
                    paths.push(Path::new(vec![
                        ts,
                        self.agg(ua),
                        self.int(i),
                        self.agg(dna),
                        td,
                    ]));
                }
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::is_walk;

    fn small() -> Vl2 {
        Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        })
    }

    #[test]
    fn sizes() {
        let v = small();
        // 4 ToRs, 4 aggs, 2 ints.
        assert_eq!(v.topology().num_switches(), 10);
        assert_eq!(v.topology().num_hosts(), 8);
        assert!(v.topology().validate().is_ok());
    }

    #[test]
    fn paper_envelope_vl2() {
        // The paper: 12-bit IDs support VL2 with 62-port switches
        // (roughly 19K servers at 20 hosts/ToR).
        let p = Vl2Params {
            da: 62,
            di: 62,
            hosts_per_tor: 20,
        };
        assert_eq!(p.num_tors() * 20, 19220);
    }

    #[test]
    fn complete_bipartite_agg_int() {
        let v = small();
        for a in 0..4 {
            for i in 0..2 {
                assert!(v.topology().adjacent(v.agg(a), v.int(i)));
            }
        }
    }

    #[test]
    fn tor_uplinks() {
        let v = small();
        for r in 0..4 {
            let (a1, a2) = v.tor_aggs(r);
            assert_ne!(a1, a2);
            assert!(v.topology().adjacent(v.tor(r), v.agg(a1)));
            assert!(v.topology().adjacent(v.tor(r), v.agg(a2)));
        }
    }

    #[test]
    fn paths_via_intermediates() {
        let v = small();
        // ToR 0 uses aggs (0,1); ToR 1 uses aggs (2,3): no shared agg.
        let (src, dst) = (v.host(0, 0), v.host(1, 0));
        let paths = v.all_paths(src, dst);
        // 2 up-aggs x 2 ints x 2 down-aggs = 8.
        assert_eq!(paths.len(), 8);
        for p in &paths {
            assert_eq!(p.num_hops(), 6);
            assert!(is_walk(v.topology(), src, dst, p));
        }
    }

    #[test]
    fn paths_via_shared_agg() {
        let v = small();
        // ToR 0 uses aggs (0,1); ToR 2 uses aggs (0,1): both shared.
        let (src, dst) = (v.host(0, 0), v.host(2, 0));
        let paths = v.all_paths(src, dst);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.num_hops(), 4);
            assert!(is_walk(v.topology(), src, dst, p));
        }
    }

    #[test]
    fn candidates_consistent_with_paths() {
        let v = small();
        let dst = v.host(1, 1);
        let dtor = v.tor(1);
        // ToR: two uplinks.
        assert_eq!(v.candidates_to_tor(v.tor(0), dtor).len(), 2);
        // Unattached agg: all intermediates.
        assert_eq!(v.candidates_to_tor(v.agg(0), dtor).len(), 2);
        // Attached agg: direct down port.
        let (da1, _) = v.tor_aggs(1);
        assert_eq!(v.candidates_to_tor(v.agg(da1), dtor).len(), 1);
        // Intermediate: two down candidates.
        assert_eq!(v.candidates_to_tor(v.int(0), dtor).len(), 2);
        // Host port at the destination ToR.
        assert_eq!(v.candidates(dtor, dst), vec![PortNo(1)]);
    }

    #[test]
    fn same_tor_and_self() {
        let v = small();
        assert_eq!(v.all_paths(v.host(0, 0), v.host(0, 1)).len(), 1);
        assert!(v.all_paths(v.host(0, 0), v.host(0, 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "DA must be even")]
    fn odd_da_rejected() {
        Vl2::build(Vl2Params {
            da: 5,
            di: 4,
            hosts_per_tor: 1,
        });
    }
}
