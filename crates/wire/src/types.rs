//! [`Encode`]/[`Decode`] implementations for the shared topology types.
//!
//! Keeping these here (rather than in `pathdump-topology`) keeps the
//! foundation crate codec-free; everything that crosses the management
//! network — flow IDs, links, paths, time ranges — becomes wire-encodable
//! through this module.

use crate::codec::{Decode, Decoder, Encode, Encoder, WireError, WireResult};
use pathdump_topology::{
    FlowId, HostId, Ip, LinkDir, LinkPattern, Nanos, Path, PortNo, Protocol, SwitchId, TimeRange,
};

impl Encode for SwitchId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.0 as u64);
    }
}

impl Decode for SwitchId {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_varint()?;
        u16::try_from(v)
            .map(SwitchId)
            .map_err(|_| WireError::VarintOverflow)
    }
}

impl Encode for HostId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.0 as u64);
    }
}

impl Decode for HostId {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_varint()?;
        u32::try_from(v)
            .map(HostId)
            .map_err(|_| WireError::VarintOverflow)
    }
}

impl Encode for PortNo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.0);
    }
}

impl Decode for PortNo {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(PortNo(dec.get_u8()?))
    }
}

impl Encode for Ip {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
}

impl Decode for Ip {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Ip(dec.get_u32()?))
    }
}

impl Encode for Protocol {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.number());
    }
}

impl Decode for Protocol {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Protocol::from_number(dec.get_u8()?))
    }
}

/// Bytes of an encoded [`FlowId`]: two little-endian `u32` addresses, two
/// little-endian `u16` ports and the protocol number.
pub const FLOW_ID_LEN: usize = 13;

/// A flow id is one fixed 13-byte block, written and read in one piece
/// (a top-k reply carries ten thousand of them).
impl Encode for FlowId {
    fn encode(&self, enc: &mut Encoder) {
        let mut b = [0u8; FLOW_ID_LEN];
        b[0..4].copy_from_slice(&self.src_ip.0.to_le_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.0.to_le_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_le_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_le_bytes());
        b[12] = self.proto.number();
        enc.put_raw(&b);
    }
}

impl Decode for FlowId {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let b: [u8; FLOW_ID_LEN] = dec.take_array()?;
        let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let u16_at = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        Ok(FlowId {
            src_ip: Ip(u32_at(0)),
            dst_ip: Ip(u32_at(4)),
            src_port: u16_at(8),
            dst_port: u16_at(10),
            proto: Protocol::from_number(b[12]),
        })
    }
}

impl Encode for LinkDir {
    fn encode(&self, enc: &mut Encoder) {
        self.from.encode(enc);
        self.to.encode(enc);
    }
}

impl Decode for LinkDir {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(LinkDir {
            from: SwitchId::decode(dec)?,
            to: SwitchId::decode(dec)?,
        })
    }
}

impl Encode for LinkPattern {
    fn encode(&self, enc: &mut Encoder) {
        self.from.encode(enc);
        self.to.encode(enc);
    }
}

impl Decode for LinkPattern {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(LinkPattern {
            from: Option::<SwitchId>::decode(dec)?,
            to: Option::<SwitchId>::decode(dec)?,
        })
    }
}

impl Encode for Nanos {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.0);
    }
}

impl Decode for Nanos {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Nanos(dec.get_varint()?))
    }
}

impl Encode for TimeRange {
    fn encode(&self, enc: &mut Encoder) {
        self.start.encode(enc);
        self.end.encode(enc);
    }
}

impl Decode for TimeRange {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(TimeRange {
            start: Option::<Nanos>::decode(dec)?,
            end: Option::<Nanos>::decode(dec)?,
        })
    }
}

impl Encode for Path {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
}

impl Decode for Path {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Path(Vec::<SwitchId>::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn id_roundtrips() {
        rt(SwitchId(0));
        rt(SwitchId(u16::MAX));
        rt(HostId(12345));
        rt(PortNo(255));
        rt(Ip::new(10, 2, 3, 4));
        rt(Protocol::Tcp);
        rt(Protocol::Other(89));
    }

    #[test]
    fn flow_roundtrip_and_size() {
        let f = FlowId::tcp(Ip::new(10, 0, 0, 2), 40001, Ip::new(10, 3, 1, 2), 80);
        rt(f);
        // 5-tuple should encode compactly: 4+4 (ips as varint <= 5 each)
        // + 2 + 2 + 1 -- allow some slack but keep it tight.
        assert!(to_bytes(&f).len() <= 15, "flow too large on the wire");
    }

    #[test]
    fn link_and_pattern() {
        rt(LinkDir::new(SwitchId(3), SwitchId(9)));
        rt(LinkPattern::ANY);
        rt(LinkPattern::exact(SwitchId(1), SwitchId(2)));
        rt(LinkPattern::into(SwitchId(4)));
    }

    #[test]
    fn time_types() {
        rt(Nanos(0));
        rt(Nanos(u64::MAX));
        rt(TimeRange::ANY);
        rt(TimeRange::between(Nanos(5), Nanos(10)));
        rt(TimeRange::since(Nanos(7)));
    }

    #[test]
    fn path_roundtrip() {
        rt(Path::new(vec![]));
        rt(Path::new(vec![SwitchId(1), SwitchId(8), SwitchId(17)]));
    }

    #[test]
    fn vec_of_flows() {
        let flows: Vec<FlowId> = (0..100)
            .map(|i| FlowId::tcp(Ip::new(10, 0, 0, 2), i, Ip::new(10, 1, 0, 2), 80))
            .collect();
        rt(flows);
    }
}
