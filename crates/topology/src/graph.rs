//! The static network topology graph.
//!
//! Each PathDump edge device stores "a static view of the datacenter network
//! topology, including the statically assigned identifiers for each switch"
//! (§2.2). This module is that view: switches with tiers and ports, hosts
//! with addresses, and adjacency lookups used both by the simulator dataplane
//! and by trajectory reconstruction.

use crate::ids::{HostId, Ip, LinkDir, PortNo, SwitchId};
use std::collections::HashMap;

/// The tier a switch belongs to.
///
/// Fat-tree uses ToR ("edge"), aggregate, and core tiers; VL2 uses ToR,
/// aggregate, and intermediate — intermediates are represented as
/// [`Tier::Core`] since they play the same role (the turning point of
/// up–down routing).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tier {
    /// Top-of-rack (edge) switch; hosts attach here.
    Tor,
    /// Aggregation switch.
    Agg,
    /// Core (fat-tree) or intermediate (VL2) switch.
    Core,
}

/// What sits at the far end of a switch port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Peer {
    /// Another switch, reached through its `port`.
    Switch {
        /// Neighbor switch.
        sw: SwitchId,
        /// The neighbor's port on this link.
        port: PortNo,
    },
    /// An end-host NIC.
    Host(HostId),
    /// Nothing connected.
    Unconnected,
}

/// Static description of one switch.
#[derive(Clone, Debug)]
pub struct SwitchMeta {
    /// Unique switch ID (also the index into [`Topology::switches`]).
    pub id: SwitchId,
    /// Tier of this switch.
    pub tier: Tier,
    /// Pod index for ToR/aggregate switches; `None` for core tier.
    pub pod: Option<u16>,
    /// Position of the switch within its tier (and pod, when applicable).
    pub pos: u16,
    /// Port table: `ports[i]` is the peer of port `i`.
    pub ports: Vec<Peer>,
}

impl SwitchMeta {
    /// Number of ports on the switch.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Returns the port leading to the given neighbor switch, if adjacent.
    pub fn port_towards(&self, neighbor: SwitchId) -> Option<PortNo> {
        self.ports
            .iter()
            .position(|p| match p {
                Peer::Switch { sw, .. } => *sw == neighbor,
                _ => false,
            })
            .map(|i| PortNo(i as u8))
    }

    /// Returns the port leading to the given host, if attached.
    pub fn port_towards_host(&self, host: HostId) -> Option<PortNo> {
        self.ports
            .iter()
            .position(|p| matches!(p, Peer::Host(h) if *h == host))
            .map(|i| PortNo(i as u8))
    }
}

/// Static description of one end-host.
#[derive(Clone, Debug)]
pub struct HostMeta {
    /// Unique host ID (also the index into [`Topology::hosts`]).
    pub id: HostId,
    /// The host's IPv4 address.
    pub ip: Ip,
    /// The ToR switch the host attaches to.
    pub tor: SwitchId,
    /// The ToR port the host attaches to.
    pub tor_port: PortNo,
}

/// The static topology: switches, hosts, and adjacency.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// All switches, indexed by [`SwitchId`].
    pub switches: Vec<SwitchMeta>,
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<HostMeta>,
    /// Reverse index from IP address to host.
    ip_index: HashMap<Ip, HostId>,
}

impl Topology {
    /// Creates an empty topology (builders fill it in).
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch and returns its ID.
    pub fn add_switch(
        &mut self,
        tier: Tier,
        pod: Option<u16>,
        pos: u16,
        num_ports: usize,
    ) -> SwitchId {
        let id = SwitchId(self.switches.len() as u16);
        self.switches.push(SwitchMeta {
            id,
            tier,
            pod,
            pos,
            ports: vec![Peer::Unconnected; num_ports],
        });
        id
    }

    /// Adds a host attached to `tor` at `tor_port` and returns its ID.
    ///
    /// # Panics
    ///
    /// Panics if the IP address is already taken or the ToR port is occupied.
    pub fn add_host(&mut self, ip: Ip, tor: SwitchId, tor_port: PortNo) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        assert!(
            self.ip_index.insert(ip, id).is_none(),
            "duplicate IP address {ip}"
        );
        let sw = &mut self.switches[tor.index()];
        assert!(
            matches!(sw.ports[tor_port.index()], Peer::Unconnected),
            "ToR port already occupied"
        );
        sw.ports[tor_port.index()] = Peer::Host(id);
        self.hosts.push(HostMeta {
            id,
            ip,
            tor,
            tor_port,
        });
        id
    }

    /// Connects two switch ports bidirectionally.
    ///
    /// # Panics
    ///
    /// Panics if either port is already occupied.
    pub fn connect(&mut self, a: SwitchId, pa: PortNo, b: SwitchId, pb: PortNo) {
        assert!(
            matches!(
                self.switches[a.index()].ports[pa.index()],
                Peer::Unconnected
            ),
            "port {pa} of {a} already occupied"
        );
        assert!(
            matches!(
                self.switches[b.index()].ports[pb.index()],
                Peer::Unconnected
            ),
            "port {pb} of {b} already occupied"
        );
        self.switches[a.index()].ports[pa.index()] = Peer::Switch { sw: b, port: pb };
        self.switches[b.index()].ports[pb.index()] = Peer::Switch { sw: a, port: pa };
    }

    /// Returns the switch metadata.
    ///
    /// # Panics
    ///
    /// Panics if the ID is out of range.
    pub fn switch(&self, id: SwitchId) -> &SwitchMeta {
        &self.switches[id.index()]
    }

    /// Returns the host metadata.
    ///
    /// # Panics
    ///
    /// Panics if the ID is out of range.
    pub fn host(&self, id: HostId) -> &HostMeta {
        &self.hosts[id.index()]
    }

    /// Looks up a host by IP address.
    pub fn host_by_ip(&self, ip: Ip) -> Option<HostId> {
        self.ip_index.get(&ip).copied()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Returns the peer of a switch port.
    pub fn peer(&self, sw: SwitchId, port: PortNo) -> Peer {
        self.switches[sw.index()].ports[port.index()]
    }

    /// Returns true if two switches are directly connected.
    pub fn adjacent(&self, a: SwitchId, b: SwitchId) -> bool {
        self.switches[a.index()].port_towards(b).is_some()
    }

    /// Iterates over every undirected switch-to-switch link exactly once
    /// (canonical direction: lower switch ID first).
    pub fn links(&self) -> impl Iterator<Item = LinkDir> + '_ {
        self.switches.iter().flat_map(move |sw| {
            sw.ports.iter().filter_map(move |p| match p {
                Peer::Switch { sw: other, .. } if sw.id.0 < other.0 => {
                    Some(LinkDir::new(sw.id, *other))
                }
                _ => None,
            })
        })
    }

    /// All switch neighbors of `sw`, with the local port leading to each.
    pub fn switch_neighbors(&self, sw: SwitchId) -> Vec<(PortNo, SwitchId)> {
        self.switches[sw.index()]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Peer::Switch { sw: other, .. } => Some((PortNo(i as u8), *other)),
                _ => None,
            })
            .collect()
    }

    /// All hosts attached to switch `sw`.
    pub fn attached_hosts(&self, sw: SwitchId) -> Vec<HostId> {
        self.switches[sw.index()]
            .ports
            .iter()
            .filter_map(|p| match p {
                Peer::Host(h) => Some(*h),
                _ => None,
            })
            .collect()
    }

    /// Checks structural invariants; returns a description of the first
    /// violation found, if any.
    ///
    /// Used by tests and by the builders' own sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        for (i, sw) in self.switches.iter().enumerate() {
            if sw.id.index() != i {
                return Err(format!("switch {i} has mismatched id {:?}", sw.id));
            }
            for (pi, peer) in sw.ports.iter().enumerate() {
                match peer {
                    Peer::Switch { sw: other, port } => {
                        let back = self
                            .switches
                            .get(other.index())
                            .ok_or_else(|| format!("{:?} points to missing {other:?}", sw.id))?;
                        match back.ports.get(port.index()) {
                            Some(Peer::Switch { sw: s2, port: p2 })
                                if *s2 == sw.id && p2.index() == pi => {}
                            _ => {
                                return Err(format!(
                                    "asymmetric link {:?}:{pi} -> {other:?}:{port}",
                                    sw.id
                                ))
                            }
                        }
                    }
                    Peer::Host(h) => {
                        let hm = self
                            .hosts
                            .get(h.index())
                            .ok_or_else(|| format!("{:?} points to missing {h:?}", sw.id))?;
                        if hm.tor != sw.id || hm.tor_port.index() != pi {
                            return Err(format!("host {h:?} back-pointer mismatch"));
                        }
                    }
                    Peer::Unconnected => {}
                }
            }
        }
        for (i, h) in self.hosts.iter().enumerate() {
            if h.id.index() != i {
                return Err(format!("host {i} has mismatched id {:?}", h.id));
            }
            if self.ip_index.get(&h.ip) != Some(&h.id) {
                return Err(format!("host {:?} missing from IP index", h.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // Two ToRs joined by one agg, one host per ToR.
        let mut t = Topology::new();
        let t0 = t.add_switch(Tier::Tor, Some(0), 0, 2);
        let t1 = t.add_switch(Tier::Tor, Some(0), 1, 2);
        let a0 = t.add_switch(Tier::Agg, Some(0), 0, 2);
        t.connect(t0, PortNo(1), a0, PortNo(0));
        t.connect(t1, PortNo(1), a0, PortNo(1));
        t.add_host(Ip::new(10, 0, 0, 2), t0, PortNo(0));
        t.add_host(Ip::new(10, 0, 1, 2), t1, PortNo(0));
        t
    }

    #[test]
    fn build_and_validate() {
        let t = tiny();
        assert!(t.validate().is_ok());
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_hosts(), 2);
    }

    #[test]
    fn adjacency_and_ports() {
        let t = tiny();
        let (t0, t1, a0) = (SwitchId(0), SwitchId(1), SwitchId(2));
        assert!(t.adjacent(t0, a0));
        assert!(!t.adjacent(t0, t1));
        assert_eq!(t.switch(t0).port_towards(a0), Some(PortNo(1)));
        assert_eq!(t.switch(a0).port_towards(t1), Some(PortNo(1)));
        assert_eq!(t.switch(t0).port_towards(t1), None);
    }

    #[test]
    fn host_lookup() {
        let t = tiny();
        let h = t.host_by_ip(Ip::new(10, 0, 1, 2)).unwrap();
        assert_eq!(t.host(h).tor, SwitchId(1));
        assert_eq!(t.host_by_ip(Ip::new(1, 2, 3, 4)), None);
        assert_eq!(t.switch(SwitchId(1)).port_towards_host(h), Some(PortNo(0)));
    }

    #[test]
    fn links_enumerated_once() {
        let t = tiny();
        let links: Vec<_> = t.links().collect();
        assert_eq!(links.len(), 2);
        for l in links {
            assert!(l.from.0 < l.to.0);
        }
    }

    #[test]
    fn attached_hosts_listed() {
        let t = tiny();
        assert_eq!(t.attached_hosts(SwitchId(0)), vec![HostId(0)]);
        assert!(t.attached_hosts(SwitchId(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate IP")]
    fn duplicate_ip_rejected() {
        let mut t = tiny();
        t.add_host(Ip::new(10, 0, 0, 2), SwitchId(1), PortNo(0));
    }

    #[test]
    fn validate_detects_asymmetry() {
        let mut t = tiny();
        // Corrupt one side of a link.
        t.switches[0].ports[1] = Peer::Switch {
            sw: SwitchId(2),
            port: PortNo(1),
        };
        assert!(t.validate().is_err());
    }
}
