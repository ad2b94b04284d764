//! K-ary fat-tree topology builder (Al-Fares et al.), the main evaluation
//! topology of the paper (§4 experiments use a 4-ary fat-tree).
//!
//! Structure for parameter `k` (even):
//! - `k` pods; each pod has `k/2` ToR switches and `k/2` aggregate switches;
//! - `(k/2)^2` core switches; core `j` (with `j = a*(k/2) + c`) connects to
//!   aggregate *position* `a` in **every** pod — so the identity of a core
//!   determines the aggregate position used in both the source and the
//!   destination pod, the observation CherryPick's fat-tree sampling relies
//!   on (§3.1);
//! - each ToR hosts `k/2` servers, for `k^3/4` total.
//!
//! Host addressing follows the fat-tree convention `10.pod.tor.(h+2)`.

use crate::graph::{Tier, Topology};
use crate::ids::{HostId, Ip, PortNo, SwitchId};
use crate::path::Path;
use crate::routing::UpDownRouting;

/// Fat-tree build parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Switch port count `k`. Must be even, `4 <= k <= 90` (the upper bound
    /// keeps CherryPick's pod-shared link IDs within the 12-bit VLAN space,
    /// matching the paper's "72-port switches, about 93K servers" envelope).
    pub k: u16,
}

impl FatTreeParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or out of the supported range.
    pub fn validate(self) {
        assert!(self.k >= 4, "fat-tree requires k >= 4");
        assert!(self.k.is_multiple_of(2), "fat-tree requires even k");
        assert!(self.k <= 90, "k > 90 exceeds the 12-bit link-ID budget");
    }
}

/// A built k-ary fat-tree.
#[derive(Clone, Debug)]
pub struct FatTree {
    params: FatTreeParams,
    topo: Topology,
}

impl FatTree {
    /// Builds the fat-tree for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`FatTreeParams::validate`]).
    pub fn build(params: FatTreeParams) -> Self {
        params.validate();
        let k = params.k as usize;
        let half = k / 2;
        let mut topo = Topology::new();

        // Switch IDs are assigned in tier order: all ToRs, all aggs, cores.
        for p in 0..k {
            for t in 0..half {
                let id = topo.add_switch(Tier::Tor, Some(p as u16), t as u16, k);
                debug_assert_eq!(id.index(), p * half + t);
            }
        }
        for p in 0..k {
            for a in 0..half {
                let id = topo.add_switch(Tier::Agg, Some(p as u16), a as u16, k);
                debug_assert_eq!(id.index(), k * half + p * half + a);
            }
        }
        for j in 0..half * half {
            let id = topo.add_switch(Tier::Core, None, j as u16, k);
            debug_assert_eq!(id.index(), k * k + j);
        }

        let ft = |p: usize, t: usize| SwitchId((p * half + t) as u16);
        let fa = |p: usize, a: usize| SwitchId((k * half + p * half + a) as u16);
        let fc = |j: usize| SwitchId((k * k + j) as u16);

        // ToR <-> Agg: ToR t port (half + a) to Agg a port t.
        for p in 0..k {
            for t in 0..half {
                for a in 0..half {
                    topo.connect(
                        ft(p, t),
                        PortNo((half + a) as u8),
                        fa(p, a),
                        PortNo(t as u8),
                    );
                }
            }
        }
        // Agg <-> Core: Agg (p, a) port (half + c) to core j = a*half + c,
        // core port p.
        for p in 0..k {
            for a in 0..half {
                for c in 0..half {
                    let j = a * half + c;
                    topo.connect(fa(p, a), PortNo((half + c) as u8), fc(j), PortNo(p as u8));
                }
            }
        }
        // Hosts: ToR (p, t) ports 0..half, address 10.p.t.(h+2).
        for p in 0..k {
            for t in 0..half {
                for h in 0..half {
                    topo.add_host(
                        Ip::new(10, p as u8, t as u8, (h + 2) as u8),
                        ft(p, t),
                        PortNo(h as u8),
                    );
                }
            }
        }
        debug_assert!(topo.validate().is_ok());
        FatTree { params, topo }
    }

    /// The build parameters.
    pub fn params(&self) -> FatTreeParams {
        self.params
    }

    /// Port count `k`.
    pub fn k(&self) -> usize {
        self.params.k as usize
    }

    /// `k/2`: pods' per-tier width, hosts per ToR, core group size.
    pub fn half(&self) -> usize {
        self.k() / 2
    }

    /// Number of pods (= k).
    pub fn num_pods(&self) -> usize {
        self.k()
    }

    /// ToR switch at `(pod, position)`.
    pub fn tor(&self, pod: usize, t: usize) -> SwitchId {
        debug_assert!(pod < self.k() && t < self.half());
        SwitchId((pod * self.half() + t) as u16)
    }

    /// Aggregate switch at `(pod, position)`.
    pub fn agg(&self, pod: usize, a: usize) -> SwitchId {
        debug_assert!(pod < self.k() && a < self.half());
        SwitchId((self.k() * self.half() + pod * self.half() + a) as u16)
    }

    /// Core switch `j` (with `j = a*(k/2) + c`).
    pub fn core(&self, j: usize) -> SwitchId {
        debug_assert!(j < self.half() * self.half());
        SwitchId((self.k() * self.k() + j) as u16)
    }

    /// The aggregate position a core switch attaches to (in every pod).
    pub fn core_agg_position(&self, j: usize) -> usize {
        j / self.half()
    }

    /// Core index for aggregate position `a`, offset `c`.
    pub fn core_index(&self, a: usize, c: usize) -> usize {
        a * self.half() + c
    }

    /// Decomposes a switch ID back into (tier, pod-or-0, position).
    pub fn coords(&self, sw: SwitchId) -> (Tier, usize, usize) {
        let k = self.k();
        let half = self.half();
        let i = sw.index();
        if i < k * half {
            (Tier::Tor, i / half, i % half)
        } else if i < k * k {
            let r = i - k * half;
            (Tier::Agg, r / half, r % half)
        } else {
            (Tier::Core, 0, i - k * k)
        }
    }

    /// Host at `(pod, tor, slot)`.
    pub fn host(&self, pod: usize, t: usize, h: usize) -> HostId {
        let half = self.half();
        debug_assert!(pod < self.k() && t < half && h < half);
        HostId((pod * half * half + t * half + h) as u32)
    }

    /// Decomposes a host ID into `(pod, tor, slot)`.
    pub fn host_coords(&self, host: HostId) -> (usize, usize, usize) {
        let half = self.half();
        let i = host.index();
        (i / (half * half), (i / half) % half, i % half)
    }
}

impl UpDownRouting for FatTree {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn candidates_to_tor(&self, sw: SwitchId, dst_tor: SwitchId) -> Vec<PortNo> {
        let half = self.half();
        let (d_pod, d_t) = {
            let (tier, pod, pos) = self.coords(dst_tor);
            debug_assert_eq!(tier, Tier::Tor);
            (pod, pos)
        };
        match self.coords(sw) {
            (Tier::Tor, _, _) if sw == dst_tor => vec![],
            (Tier::Tor, _, _) => (0..half).map(|a| PortNo((half + a) as u8)).collect(),
            (Tier::Agg, pod, _) if pod == d_pod => vec![PortNo(d_t as u8)],
            (Tier::Agg, _, _) => (0..half).map(|c| PortNo((half + c) as u8)).collect(),
            (Tier::Core, _, _) => vec![PortNo(d_pod as u8)],
        }
    }

    fn all_paths(&self, src: HostId, dst: HostId) -> Vec<Path> {
        let half = self.half();
        let (sp, st, _) = self.host_coords(src);
        let (dp, dt, _) = self.host_coords(dst);
        let (ts, td) = (self.tor(sp, st), self.tor(dp, dt));
        if src == dst {
            return vec![];
        }
        if ts == td {
            return vec![Path::new(vec![ts])];
        }
        if sp == dp {
            // Intra-pod: one path per aggregate.
            return (0..half)
                .map(|a| Path::new(vec![ts, self.agg(sp, a), td]))
                .collect();
        }
        // Inter-pod: one path per core; the aggregates are implied by the
        // core's group position.
        let mut paths = Vec::with_capacity(half * half);
        for a in 0..half {
            for c in 0..half {
                let j = self.core_index(a, c);
                paths.push(Path::new(vec![
                    ts,
                    self.agg(sp, a),
                    self.core(j),
                    self.agg(dp, a),
                    td,
                ]));
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::is_walk;

    fn ft4() -> FatTree {
        FatTree::build(FatTreeParams { k: 4 })
    }

    #[test]
    fn sizes_k4() {
        let ft = ft4();
        assert_eq!(ft.topology().num_switches(), 20);
        assert_eq!(ft.topology().num_hosts(), 16);
        assert_eq!(ft.topology().links().count(), 32);
    }

    #[test]
    fn sizes_k8() {
        let ft = FatTree::build(FatTreeParams { k: 8 });
        assert_eq!(ft.topology().num_switches(), 8 * 8 + 16);
        assert_eq!(ft.topology().num_hosts(), 128);
        assert!(ft.topology().validate().is_ok());
    }

    #[test]
    fn coords_roundtrip() {
        let ft = ft4();
        for p in 0..4 {
            for t in 0..2 {
                assert_eq!(ft.coords(ft.tor(p, t)), (Tier::Tor, p, t));
                assert_eq!(ft.coords(ft.agg(p, t)), (Tier::Agg, p, t));
            }
        }
        for j in 0..4 {
            assert_eq!(ft.coords(ft.core(j)), (Tier::Core, 0, j));
        }
        for h in 0..16 {
            let hid = HostId(h);
            let (p, t, s) = ft.host_coords(hid);
            assert_eq!(ft.host(p, t, s), hid);
        }
    }

    #[test]
    fn core_group_structure() {
        let ft = ft4();
        // Core j attaches to agg position j/half in every pod.
        for j in 0..4 {
            let a = ft.core_agg_position(j);
            for p in 0..4 {
                assert!(
                    ft.topology().adjacent(ft.core(j), ft.agg(p, a)),
                    "core {j} must reach agg position {a} in pod {p}"
                );
            }
            // And to no other aggregate position.
            let other = 1 - a;
            for p in 0..4 {
                assert!(!ft.topology().adjacent(ft.core(j), ft.agg(p, other)));
            }
        }
    }

    #[test]
    fn host_addresses() {
        let ft = ft4();
        let h = ft.host(2, 1, 0);
        assert_eq!(ft.topology().host(h).ip, Ip::new(10, 2, 1, 2));
        assert_eq!(ft.topology().host_by_ip(Ip::new(10, 2, 1, 2)), Some(h));
    }

    #[test]
    fn inter_pod_paths() {
        let ft = ft4();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let paths = ft.all_paths(src, dst);
        assert_eq!(paths.len(), 4, "k=4 gives (k/2)^2 = 4 inter-pod paths");
        let mut switches = std::collections::HashSet::new();
        for p in &paths {
            assert_eq!(p.num_hops(), 6);
            assert!(is_walk(ft.topology(), src, dst, p));
            switches.extend(p.0.iter().copied());
        }
        // The union of the 4 paths covers 10 switches (§4.4 blackhole text).
        assert_eq!(switches.len(), 10);
    }

    #[test]
    fn intra_pod_paths() {
        let ft = ft4();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(0, 1, 0));
        let paths = ft.all_paths(src, dst);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.num_hops(), 4);
            assert!(is_walk(ft.topology(), src, dst, p));
        }
    }

    #[test]
    fn same_tor_path() {
        let ft = ft4();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(0, 0, 1));
        let paths = ft.all_paths(src, dst);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].num_hops(), 2);
        assert!(ft.all_paths(src, src).is_empty());
    }

    #[test]
    fn candidates_follow_updown() {
        let ft = ft4();
        let dst = ft.host(3, 1, 1);
        let dtor = ft.tor(3, 1);
        // At a ToR in another pod: all k/2 agg uplinks.
        assert_eq!(ft.candidates_to_tor(ft.tor(0, 0), dtor).len(), 2);
        // At an agg in another pod: all k/2 core uplinks.
        assert_eq!(ft.candidates_to_tor(ft.agg(0, 1), dtor).len(), 2);
        // At a core: the single port toward pod 3.
        assert_eq!(ft.candidates_to_tor(ft.core(2), dtor), vec![PortNo(3)]);
        // At the destination pod's agg: the single ToR port.
        assert_eq!(ft.candidates_to_tor(ft.agg(3, 0), dtor), vec![PortNo(1)]);
        // Full host resolution at the destination ToR.
        assert_eq!(ft.candidates(dtor, dst), vec![PortNo(1)]);
    }

    #[test]
    fn shortest_hops_counts() {
        let ft = ft4();
        assert_eq!(ft.shortest_hops(ft.host(0, 0, 0), ft.host(0, 0, 1)), 2);
        assert_eq!(ft.shortest_hops(ft.host(0, 0, 0), ft.host(0, 1, 0)), 4);
        assert_eq!(ft.shortest_hops(ft.host(0, 0, 0), ft.host(2, 1, 0)), 6);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        FatTree::build(FatTreeParams { k: 5 });
    }
}
