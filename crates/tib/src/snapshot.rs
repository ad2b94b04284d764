//! TIB snapshots: full serialization of a store, for persistence and the
//! §5.3 disk-footprint accounting ("about 110 MB of disk space to store
//! 240K flow entries").
//!
//! # Formats
//!
//! Two envelope versions, distinguished by the leading magic:
//!
//! **TIB2** ([`SNAPSHOT_MAGIC`], flat store):
//!
//! ```text
//! u32 magic "TIB2" | varint bucket_width | varint n_records | records...
//! ```
//!
//! **TIB3** ([`SNAPSHOT_MAGIC_V3`], tiered store — adds a versioned
//! segment directory so delta snapshots reuse sealed segments' cached
//! encoded blocks instead of re-serializing the whole store):
//!
//! ```text
//! u32 magic "TIB3" | varint bucket_width
//!   | varint n_sealed
//!   | n_sealed × ( varint block_len | block )   -- sealed segments, oldest first
//!   | block                                      -- the head segment
//! ```
//!
//! where each `block` is the TIB2 record-slice encoding (`varint count`
//! then each record) — the exact bytes `save_into` streams, and the exact
//! bytes a cold segment file holds.
//!
//! # Compatibility
//!
//! - TIB2 files still load: [`load_tiered`] accepts either magic (a TIB2
//!   file becomes a head-only tiered store), and the plain [`load`]
//!   flattens a TIB3 file into one arena, so `diff_snapshots` and the
//!   CLI work across both.
//! - The TIB2 *write* path (`save`/`save_into`) is byte-for-byte
//!   unchanged.
//!
//! # Truncation is corruption here
//!
//! Unlike the WAL (whose torn tail is explicitly tolerated — see
//! [`crate::wal`]), a snapshot is written atomically: every load path
//! rejects truncated or trailing bytes (`Decoder::finish`), and each
//! segment block must decode to exactly its declared length. The
//! crash-recovery suite regression-tests that distinction.

use crate::record::TibRecord;
use crate::segment::{StoreResult, TieredTib};
use crate::tib::Tib;
use pathdump_wire::{from_bytes, Decode, Decoder, Encode, Encoder, WireError, WireResult};
use std::sync::Arc;

/// Magic bytes marking a flat TIB snapshot. "TIB2" since the header
/// gained the bucket width (v1 snapshots carried only the record count).
pub const SNAPSHOT_MAGIC: u32 = 0x5449_4232; // "TIB2"

/// Magic bytes marking a tiered TIB snapshot with a segment directory.
pub const SNAPSHOT_MAGIC_V3: u32 = 0x5449_4233; // "TIB3"

/// Serializes the whole TIB to a byte vector (what a disk file would hold).
pub fn save(tib: &Tib) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + tib.len() * 48);
    save_into(tib, &mut out);
    out
}

/// Streaming save: appends the snapshot to a caller-provided buffer via
/// the wire codec's `encode_into` path, so periodic snapshotters reuse
/// one buffer instead of allocating per save.
pub fn save_into(tib: &Tib, out: &mut Vec<u8>) {
    let mut enc = Encoder::from_vec(std::mem::take(out));
    enc.put_u32(SNAPSHOT_MAGIC);
    // Persist the time-index configuration so a tuned bucket width
    // survives the round trip.
    enc.put_varint(tib.bucket_width().0);
    // The slice impl writes `varint(len)` then each record — byte-for-byte
    // the format `load` expects.
    tib.records().encode(&mut enc);
    *out = enc.into_bytes();
}

/// Serializes a tiered store as a TIB3 snapshot. Sealed segments
/// contribute their cached encoded blocks (a cold segment's block is
/// read back from disk), so repeated checkpoints only re-encode the
/// head — the delta-snapshot property.
pub fn save_tiered(tib: &TieredTib) -> StoreResult<Vec<u8>> {
    let mut out = Vec::with_capacity(64 + tib.head().len() * 48);
    save_tiered_into(tib, &mut out)?;
    Ok(out)
}

/// Streaming tiered save; see [`save_tiered`]. Appends to `out`.
pub fn save_tiered_into(tib: &TieredTib, out: &mut Vec<u8>) -> StoreResult<()> {
    let blocks = tib.sealed_blocks()?;
    let mut enc = Encoder::from_vec(std::mem::take(out));
    enc.put_u32(SNAPSHOT_MAGIC_V3);
    enc.put_varint(tib.bucket_width().0);
    enc.put_varint(blocks.len() as u64);
    for block in &blocks {
        enc.put_varint(block.len() as u64);
        enc.put_raw(block);
    }
    tib.head().records().encode(&mut enc);
    *out = enc.into_bytes();
    Ok(())
}

/// Restores a TIB from snapshot bytes. Accepts both envelopes: a TIB3
/// file is flattened into one arena (segment boundaries are a storage
/// detail; record order is preserved), so diffing and the CLI work on
/// either version.
pub fn load(bytes: &[u8]) -> WireResult<Tib> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_u32()?;
    match magic {
        SNAPSHOT_MAGIC => {
            let width = header_width(&mut dec)?;
            let n = dec.get_varint()? as usize;
            let mut tib = Tib::with_bucket_width(width);
            for _ in 0..n {
                tib.insert(TibRecord::decode(&mut dec)?);
            }
            dec.finish()?;
            Ok(tib)
        }
        SNAPSHOT_MAGIC_V3 => {
            let width = header_width(&mut dec)?;
            let mut tib = Tib::with_bucket_width(width);
            each_v3_block(&mut dec, &mut |records, _| {
                for rec in records {
                    tib.insert(rec);
                }
            })?;
            Ok(tib)
        }
        other => Err(WireError::InvalidTag(other)),
    }
}

/// Restores a tiered store from snapshot bytes. A TIB3 file rebuilds its
/// sealed segments (indexes built lazily on first query — recovery stays
/// cheap); a TIB2 file loads as a head-only store.
pub fn load_tiered(bytes: &[u8]) -> WireResult<TieredTib> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_u32()?;
    match magic {
        SNAPSHOT_MAGIC => {
            let width = header_width(&mut dec)?;
            let n = dec.get_varint()? as usize;
            let mut tib = TieredTib::with_bucket_width(width);
            for _ in 0..n {
                tib.insert(TibRecord::decode(&mut dec)?);
            }
            dec.finish()?;
            Ok(tib)
        }
        SNAPSHOT_MAGIC_V3 => {
            let width = header_width(&mut dec)?;
            let mut tib = TieredTib::with_bucket_width(width);
            each_v3_block(&mut dec, &mut |records, block| match block {
                Some(encoded) => tib.push_sealed_block(encoded, &records),
                None => {
                    for rec in records {
                        tib.insert(rec);
                    }
                }
            })?;
            Ok(tib)
        }
        other => Err(WireError::InvalidTag(other)),
    }
}

/// Decodes and validates the bucket width common to both headers.
fn header_width(dec: &mut Decoder<'_>) -> WireResult<pathdump_topology::Nanos> {
    let width = dec.get_varint()?;
    if width == 0 {
        return Err(WireError::InvalidTag(0));
    }
    Ok(pathdump_topology::Nanos(width))
}

/// Walks a TIB3 body after the header: yields each sealed segment's
/// decoded records (with its raw block) then the head's records (block
/// `None`), enforcing exact block lengths and full consumption.
fn each_v3_block(
    dec: &mut Decoder<'_>,
    f: &mut dyn FnMut(Vec<TibRecord>, Option<Arc<Vec<u8>>>),
) -> WireResult<()> {
    let n_sealed = dec.get_varint()? as usize;
    for _ in 0..n_sealed {
        let block_len = dec.get_varint()? as usize;
        let block = dec.get_raw(block_len)?.to_vec();
        // `from_bytes` enforces that the block decodes to exactly its
        // declared length — a short or overlong block is corruption.
        let records: Vec<TibRecord> = from_bytes(&block)?;
        f(records, Some(Arc::new(block)));
    }
    let n_head = dec.get_varint()? as usize;
    let mut head = Vec::with_capacity(n_head.min(1 << 16));
    for _ in 0..n_head {
        head.push(TibRecord::decode(dec)?);
    }
    dec.finish()?;
    f(head, None);
    Ok(())
}

/// Snapshot size in bytes without materializing the buffer.
pub fn snapshot_size(tib: &Tib) -> usize {
    save(tib).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tib::TibRead;
    use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};

    fn populate(n: u16) -> Tib {
        let mut t = Tib::new();
        for i in 0..n {
            t.insert(TibRecord {
                flow: FlowId::tcp(Ip::new(10, 0, 0, 2), 1000 + i, Ip::new(10, 1, 0, 2), 80),
                path: Path::new(vec![SwitchId(0), SwitchId(8 + i % 4), SwitchId(4)]),
                stime: Nanos(i as u64 * 100),
                etime: Nanos(i as u64 * 100 + 50),
                bytes: i as u64 * 1000,
                pkts: i as u64,
            });
        }
        t
    }

    fn populate_tiered(n: u16, seal_every: usize) -> TieredTib {
        let mut t = TieredTib::new();
        t.set_seal_after(Some(seal_every));
        for rec in populate(n).records() {
            t.insert(rec.clone());
        }
        t
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let t = populate(200);
        let bytes = save(&t);
        let back = load(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(
            back.get_flows(pathdump_topology::LinkPattern::ANY, TimeRange::ANY),
            t.get_flows(pathdump_topology::LinkPattern::ANY, TimeRange::ANY)
        );
        assert_eq!(
            back.top_k_flows(5, TimeRange::ANY),
            t.top_k_flows(5, TimeRange::ANY)
        );
    }

    #[test]
    fn bucket_width_survives_roundtrip() {
        let mut t = crate::tib::Tib::with_bucket_width(Nanos(1000));
        t.insert(TibRecord {
            flow: FlowId::tcp(Ip::new(10, 0, 0, 2), 1, Ip::new(10, 1, 0, 2), 80),
            path: Path::new(vec![SwitchId(0), SwitchId(4)]),
            stime: Nanos(5),
            etime: Nanos(9),
            bytes: 42,
            pkts: 1,
        });
        let back = load(&save(&t)).unwrap();
        assert_eq!(back.bucket_width(), Nanos(1000));
        assert_eq!(
            load(&save(&populate(3))).unwrap().bucket_width(),
            crate::tib::DEFAULT_BUCKET_WIDTH
        );
    }

    #[test]
    fn save_into_appends_same_bytes() {
        let t = populate(50);
        let mut buf = vec![0xEE];
        save_into(&t, &mut buf);
        assert_eq!(buf[0], 0xEE, "caller prefix preserved");
        // Independently hand-built expectation (save delegates to
        // save_into, so comparing the two would be a tautology).
        let mut exp = Encoder::new();
        exp.put_u32(SNAPSHOT_MAGIC);
        exp.put_varint(t.bucket_width().0);
        exp.put_varint(t.len() as u64);
        for rec in t.records() {
            rec.encode(&mut exp);
        }
        assert_eq!(&buf[1..], exp.bytes());
        let back = load(&buf[1..]).unwrap();
        assert_eq!(back.len(), t.len());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let t = populate(3);
        let mut bytes = save(&t);
        bytes[0] ^= 0xFF;
        assert!(load(&bytes).is_err());
        assert!(load_tiered(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let t = populate(10);
        let bytes = save(&t);
        assert!(load(&bytes[..bytes.len() - 3]).is_err());
        assert!(load_tiered(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn tiered_roundtrip_preserves_queries() {
        let t = populate_tiered(200, 64);
        assert!(t.num_sealed() >= 3);
        let bytes = save_tiered(&t).unwrap();
        let back = load_tiered(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.num_sealed(), t.num_sealed());
        assert_eq!(back.bucket_width(), t.bucket_width());
        assert_eq!(back.records_vec(), t.records_vec());
        assert_eq!(
            back.top_k_flows(7, TimeRange::ANY),
            t.top_k_flows(7, TimeRange::ANY)
        );
        assert_eq!(
            back.get_flows(LinkPattern::into(SwitchId(4)), TimeRange::since(Nanos(900))),
            t.get_flows(LinkPattern::into(SwitchId(4)), TimeRange::since(Nanos(900)))
        );
    }

    #[test]
    fn flat_load_flattens_tiered_snapshot() {
        let t = populate_tiered(120, 32);
        let bytes = save_tiered(&t).unwrap();
        let flat = load(&bytes).unwrap();
        assert_eq!(flat.records().to_vec(), t.records_vec());
        assert_eq!(flat.bucket_width(), t.bucket_width());
        // And a flat TIB2 file loads as a head-only tiered store.
        let t2 = populate(40);
        let tiered = load_tiered(&save(&t2)).unwrap();
        assert_eq!(tiered.num_sealed(), 0);
        assert_eq!(tiered.records_vec(), t2.records().to_vec());
    }

    #[test]
    fn tiered_truncation_rejected_at_every_cut() {
        // Unlike the WAL torn tail, snapshot truncation is always
        // corruption: every strict prefix must fail to load.
        let t = populate_tiered(24, 8);
        let bytes = save_tiered(&t).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                load_tiered(&bytes[..cut]).is_err(),
                "truncated snapshot ({cut}/{} bytes) must not load",
                bytes.len()
            );
            assert!(load(&bytes[..cut]).is_err(), "flat load too (cut {cut})");
        }
    }

    #[test]
    fn tiered_trailing_bytes_rejected() {
        let t = populate_tiered(12, 4);
        let mut bytes = save_tiered(&t).unwrap();
        bytes.push(0x00);
        assert!(load_tiered(&bytes).is_err());
        assert!(load(&bytes).is_err());
    }

    #[test]
    fn tiered_corrupt_block_rejected() {
        // Two records per block keeps block_len a single-byte varint.
        let t = populate_tiered(6, 2);
        let bytes = save_tiered(&t).unwrap();
        // Overstate the first block's length: the directory then walks
        // into record bytes and must fail (no silent misparse).
        let mut grown = bytes.clone();
        // Header is magic(4) + width varint; first varint after is
        // n_sealed, then the first block_len varint.
        let mut dec = Decoder::new(&bytes);
        dec.get_u32().unwrap();
        dec.get_varint().unwrap();
        dec.get_varint().unwrap();
        let off = bytes.len() - dec.remaining();
        assert!(grown[off] < 0x7F, "test assumes single-byte block_len");
        grown[off] += 1;
        assert!(load_tiered(&grown).is_err());
        let mut shrunk = bytes;
        shrunk[off] -= 1;
        assert!(load_tiered(&shrunk).is_err());
    }

    #[test]
    fn record_with_wrapping_etime_rejected() {
        // A record whose `stime + delta` just fits, as the last record of a
        // TIB2 body, of a TIB3 head and of a TIB3 sealed block; then the
        // same bytes with the delta one larger. The record ends `delta,
        // bytes = 0, pkts = 0`, and the sealed layout with an empty head.
        let mut rec = populate(1).records()[0].clone();
        (rec.stime, rec.etime) = (Nanos(u64::MAX - 1), Nanos(u64::MAX));
        let mut flat = Tib::new();
        flat.insert(rec.clone());
        let mut tiered = TieredTib::new();
        tiered.insert(rec);
        let head = save_tiered(&tiered).unwrap();
        tiered.seal();
        let sealed = save_tiered(&tiered).unwrap();
        for (mut bytes, delta_from_end) in [(save(&flat), 3), (head, 3), (sealed, 4)] {
            assert!(load(&bytes).is_ok() && load_tiered(&bytes).is_ok());
            let delta = bytes.len() - delta_from_end;
            assert_eq!(bytes[delta], 1);
            bytes[delta] = 2;
            assert_eq!(load(&bytes).unwrap_err(), WireError::VarintOverflow);
            assert_eq!(load_tiered(&bytes).unwrap_err(), WireError::VarintOverflow);
        }
    }

    #[test]
    fn per_record_footprint_is_compact() {
        let t = populate(1000);
        let per_record = snapshot_size(&t) as f64 / 1000.0;
        // The paper's MongoDB footprint is ~480 B/record; the binary
        // snapshot must be well under that.
        assert!(per_record < 64.0, "snapshot uses {per_record:.1} B/record");
    }

    #[test]
    fn delta_checkpoint_reuses_sealed_blocks() {
        // The point of the segment directory: a second checkpoint after
        // more inserts re-encodes only the head.
        let mut t = populate_tiered(100, 32);
        let first = save_tiered(&t).unwrap();
        for rec in populate(10).records() {
            let mut r = rec.clone();
            r.stime = Nanos(r.stime.0 + 1_000_000);
            r.etime = Nanos(r.etime.0 + 1_000_000);
            t.insert(r);
        }
        let second = save_tiered(&t).unwrap();
        assert!(second.len() > first.len());
        let back = load_tiered(&second).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.records_vec(), t.records_vec());
    }
}
