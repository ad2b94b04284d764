//! TIB records: `<flow ID, path, stime, etime, #bytes, #pkts>` (Figure 2).

use pathdump_topology::{FlowId, Nanos, Path, TimeRange};
use pathdump_wire::{Decode, Decoder, Encode, Encoder, WireError, WireResult};

/// One per-path flow record, the unit the TIB stores.
///
/// "One per-path flow record corresponds to statistics on packets of the
/// same flow that traversed the same path. Thus, at a given point in time,
/// more than one per-path flow record can be associated with a flow" (§3.2)
/// — e.g. under packet spraying.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TibRecord {
    /// The 5-tuple.
    pub flow: FlowId,
    /// The reconstructed end-to-end switch path.
    pub path: Path,
    /// First packet time covered by this record.
    pub stime: Nanos,
    /// Last packet time covered by this record.
    pub etime: Nanos,
    /// Bytes counted.
    pub bytes: u64,
    /// Packets counted.
    pub pkts: u64,
}

impl TibRecord {
    /// Returns true if the record's active interval overlaps `range`.
    pub fn overlaps(&self, range: &TimeRange) -> bool {
        range.overlaps(self.stime, self.etime)
    }

    /// Record duration.
    pub fn duration(&self) -> Nanos {
        self.etime.saturating_sub(self.stime)
    }
}

impl Encode for TibRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.flow.encode(enc);
        self.path.encode(enc);
        self.stime.encode(enc);
        // Delta-encode etime relative to stime (records are short-lived).
        enc.put_varint(self.etime.0 - self.stime.0);
        enc.put_varint(self.bytes);
        enc.put_varint(self.pkts);
    }
}

impl Decode for TibRecord {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let flow = FlowId::decode(dec)?;
        let path = Path::decode(dec)?;
        let stime = Nanos::decode(dec)?;
        let delta = dec.get_varint()?;
        let bytes = dec.get_varint()?;
        let pkts = dec.get_varint()?;
        // These are stored bytes: a delta that carries etime past 64 bits
        // would wrap it below stime, the ill-formed record whole-bucket
        // aggregation double-counts.
        let etime = stime
            .0
            .checked_add(delta)
            .ok_or(WireError::VarintOverflow)?;
        Ok(TibRecord {
            flow,
            path,
            stime,
            etime: Nanos(etime),
            bytes,
            pkts,
        })
    }
}

/// A record evicted from trajectory memory, before path construction: the
/// key still holds raw link IDs (Figure 2's "export per-path flow record").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PendingRecord {
    /// The 5-tuple.
    pub flow: FlowId,
    /// VL2 DSCP sample, if any.
    pub dscp_sample: Option<u8>,
    /// VLAN tags in push order.
    pub tags: Vec<u16>,
    /// First packet time.
    pub stime: Nanos,
    /// Last packet time.
    pub etime: Nanos,
    /// Bytes counted.
    pub bytes: u64,
    /// Packets counted.
    pub pkts: u64,
    /// Whether eviction was triggered by FIN/RST (vs idle timeout).
    pub closed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{Ip, SwitchId};
    use pathdump_wire::{from_bytes, to_bytes};

    fn rec() -> TibRecord {
        TibRecord {
            flow: FlowId::tcp(Ip::new(10, 0, 0, 2), 40000, Ip::new(10, 1, 0, 2), 80),
            path: Path::new(vec![
                SwitchId(0),
                SwitchId(8),
                SwitchId(16),
                SwitchId(12),
                SwitchId(4),
            ]),
            stime: Nanos::from_millis(10),
            etime: Nanos::from_millis(250),
            bytes: 123_456,
            pkts: 89,
        }
    }

    #[test]
    fn wire_roundtrip() {
        let r = rec();
        let bytes = to_bytes(&r);
        let back: TibRecord = from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn etime_past_64_bits_is_rejected() {
        // The largest delta that fits decodes; one more is an error, not a
        // wrapped etime. The delta is the fifth byte from the end (before
        // three bytes of `bytes` and one of `pkts`).
        let edge = TibRecord {
            stime: Nanos(u64::MAX - 1),
            etime: Nanos(u64::MAX),
            ..rec()
        };
        let mut bytes = to_bytes(&edge);
        assert_eq!(from_bytes::<TibRecord>(&bytes), Ok(edge));
        let delta = bytes.len() - 5;
        assert_eq!(bytes[delta], 1);
        bytes[delta] = 2;
        assert_eq!(
            from_bytes::<TibRecord>(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn compact_encoding() {
        // A record should be tens of bytes, not hundreds (the paper's
        // 240K-records-in-110MB MongoDB baseline is ~480B/record; our wire
        // format is far tighter).
        let n = to_bytes(&rec()).len();
        assert!(n < 64, "record encodes to {n} bytes");
    }

    #[test]
    fn overlap_and_duration() {
        let r = rec();
        assert!(r.overlaps(&TimeRange::ANY));
        assert!(r.overlaps(&TimeRange::between(Nanos::ZERO, Nanos::from_millis(10))));
        assert!(!r.overlaps(&TimeRange::since(Nanos::from_secs(1))));
        assert_eq!(r.duration(), Nanos::from_millis(240));
    }
}
