//! Identifier types shared across the PathDump workspace.
//!
//! The paper assumes "each switch and host has a unique ID" (§2.1); a
//! `linkID` is a pair of adjacent switch IDs, and a `flowID` is the usual
//! 5-tuple. These are the exact types exposed by the Host API of Table 1.

use std::fmt;

/// Unique identifier of a switch.
///
/// Switch IDs are dense indices assigned by the topology builder; they double
/// as indices into [`crate::Topology`] tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

impl SwitchId {
    /// Returns the switch ID as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Unique identifier of an end-host (edge device).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// Returns the host ID as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// Port number local to one switch or host NIC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u8);

impl PortNo {
    /// Returns the port number as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// IPv4 address, stored as a raw big-endian `u32`.
///
/// A dedicated newtype (rather than `std::net::Ipv4Addr`) keeps wire encoding
/// trivially compact and lets the topology builders do address arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ip(pub u32);

impl Ip {
    /// Builds an address from dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four dotted-quad components.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Transport protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// TCP (IP protocol number 6).
    Tcp,
    /// UDP (IP protocol number 17).
    Udp,
    /// Any other protocol, identified by its IP protocol number.
    Other(u8),
}

impl Protocol {
    /// Returns the IP protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Builds a protocol from its IP protocol number.
    pub const fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Debug for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The usual 5-tuple flow identifier (§2.1):
/// `<srcIP, dstIP, srcPort, dstPort, protocol>`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId {
    /// Source IPv4 address.
    pub src_ip: Ip,
    /// Destination IPv4 address.
    pub dst_ip: Ip,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowId {
    /// Builds a TCP flow ID.
    pub const fn tcp(src_ip: Ip, src_port: u16, dst_ip: Ip, dst_port: u16) -> Self {
        FlowId {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::Tcp,
        }
    }

    /// Builds a UDP flow ID.
    pub const fn udp(src_ip: Ip, src_port: u16, dst_ip: Ip, dst_port: u16) -> Self {
        FlowId {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::Udp,
        }
    }

    /// Returns the flow ID of the reverse direction (ACK stream).
    pub const fn reversed(self) -> Self {
        FlowId {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}/{:?}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto
        )
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A directed link between two adjacent switches: the paper's `linkID`
/// `<Si, Sj>` where the packet travels from `Si` to `Sj`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkDir {
    /// Upstream switch (the packet leaves this switch...).
    pub from: SwitchId,
    /// Downstream switch (...and arrives at this one).
    pub to: SwitchId,
}

impl LinkDir {
    /// Builds a directed link.
    pub const fn new(from: SwitchId, to: SwitchId) -> Self {
        LinkDir { from, to }
    }

    /// Returns the link in the opposite direction.
    pub const fn reversed(self) -> Self {
        LinkDir {
            from: self.to,
            to: self.from,
        }
    }

    /// Returns the undirected endpoints in canonical (sorted) order.
    pub fn canonical(self) -> (SwitchId, SwitchId) {
        if self.from.0 <= self.to.0 {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

impl fmt::Debug for LinkDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.from, self.to)
    }
}

impl fmt::Display for LinkDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A link pattern with optional wildcards, as accepted by the Host API:
/// `<?, Sj>` means "all incoming links of `Sj`", `<*, *>` means "any link"
/// (§2.1: "PathDump supports wildcard entries for switchIDs").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinkPattern {
    /// Upstream switch; `None` is the wildcard `?`.
    pub from: Option<SwitchId>,
    /// Downstream switch; `None` is the wildcard `?`.
    pub to: Option<SwitchId>,
}

impl LinkPattern {
    /// The fully wildcarded pattern `<*, *>`.
    pub const ANY: LinkPattern = LinkPattern {
        from: None,
        to: None,
    };

    /// Builds an exact (no wildcard) pattern.
    pub const fn exact(from: SwitchId, to: SwitchId) -> Self {
        LinkPattern {
            from: Some(from),
            to: Some(to),
        }
    }

    /// Pattern matching every link *into* `to`: `<?, Sj>`.
    pub const fn into(to: SwitchId) -> Self {
        LinkPattern {
            from: None,
            to: Some(to),
        }
    }

    /// Pattern matching every link *out of* `from`: `<Si, ?>`.
    pub const fn out_of(from: SwitchId) -> Self {
        LinkPattern {
            from: Some(from),
            to: None,
        }
    }

    /// Returns true if `link` matches this pattern.
    pub fn matches(&self, link: LinkDir) -> bool {
        self.from.is_none_or(|f| f == link.from) && self.to.is_none_or(|t| t == link.to)
    }

    /// Returns true if the pattern is fully wildcarded.
    pub fn is_any(&self) -> bool {
        self.from.is_none() && self.to.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_octet_roundtrip() {
        let ip = Ip::new(10, 1, 2, 3);
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
        assert_eq!(format!("{ip}"), "10.1.2.3");
    }

    #[test]
    fn protocol_number_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn flow_reversed_is_involution() {
        let f = FlowId::tcp(Ip::new(10, 0, 0, 1), 1234, Ip::new(10, 0, 1, 1), 80);
        assert_eq!(f.reversed().reversed(), f);
        assert_eq!(f.reversed().src_port, 80);
    }

    #[test]
    fn link_canonical_order() {
        let l = LinkDir::new(SwitchId(7), SwitchId(3));
        assert_eq!(l.canonical(), (SwitchId(3), SwitchId(7)));
        assert_eq!(l.reversed().canonical(), l.canonical());
    }

    #[test]
    fn link_pattern_wildcards() {
        let l = LinkDir::new(SwitchId(1), SwitchId(2));
        assert!(LinkPattern::ANY.matches(l));
        assert!(LinkPattern::into(SwitchId(2)).matches(l));
        assert!(!LinkPattern::into(SwitchId(1)).matches(l));
        assert!(LinkPattern::out_of(SwitchId(1)).matches(l));
        assert!(LinkPattern::exact(SwitchId(1), SwitchId(2)).matches(l));
        assert!(!LinkPattern::exact(SwitchId(2), SwitchId(1)).matches(l));
    }

    #[test]
    fn link_pattern_is_any() {
        assert!(LinkPattern::ANY.is_any());
        assert!(!LinkPattern::into(SwitchId(0)).is_any());
    }
}
