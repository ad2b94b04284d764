//! TIB snapshots: full serialization of a store, for persistence and the
//! §5.3 disk-footprint accounting ("about 110 MB of disk space to store
//! 240K flow entries").
//!
//! # Formats
//!
//! One envelope is written, two are read; the leading magic tells them
//! apart.
//!
//! **TIB3** ([`SNAPSHOT_MAGIC_V3`]) — what [`save_tiered`] writes. Its
//! versioned segment directory lets delta snapshots reuse sealed segments'
//! cached encoded blocks instead of re-serializing the whole store:
//!
//! ```text
//! u32 magic "TIB3" | varint bucket_width
//!   | varint n_sealed
//!   | n_sealed × ( varint block_len | block )   -- sealed segments, oldest first
//!   | block                                      -- the head segment
//! ```
//!
//! **TIB2** ([`SNAPSHOT_MAGIC`]) — the flat format of the stores before
//! segments; nothing writes it any more:
//!
//! ```text
//! u32 magic "TIB2" | varint bucket_width | block
//! ```
//!
//! where each `block` is a record slice in the wire encoding (`varint
//! count` then each record) — the exact bytes a cold segment file holds.
//!
//! # Compatibility
//!
//! A TIB2 file is a TIB3 file without the directory, and [`load_tiered`] —
//! the only loader — reads it as one: a store with no sealed segment whose
//! head holds the file's records (`tests/legacy_v2.rs` pins a file written
//! by the last flat writer).
//!
//! # Truncation is corruption here
//!
//! Unlike the WAL (whose torn tail is explicitly tolerated — see
//! [`crate::wal`]), a snapshot is written atomically: the loader rejects
//! truncated or trailing bytes (`Decoder::finish`), and each segment block
//! must decode to exactly its declared length. The crash-recovery suite
//! regression-tests that distinction.

use crate::record::TibRecord;
use crate::segment::{StoreResult, TieredTib};
use pathdump_topology::Nanos;
use pathdump_wire::{from_bytes, Decode, Decoder, Encode, Encoder, WireError, WireResult};
use std::sync::Arc;

/// Magic bytes of the flat snapshot envelope (read, never written). "TIB2"
/// since the header gained the bucket width (v1 snapshots carried only the
/// record count).
pub const SNAPSHOT_MAGIC: u32 = 0x5449_4232; // "TIB2"

/// Magic bytes marking a tiered TIB snapshot with a segment directory.
pub const SNAPSHOT_MAGIC_V3: u32 = 0x5449_4233; // "TIB3"

/// Serializes a tiered store as a TIB3 snapshot. Sealed segments
/// contribute their cached encoded blocks (a cold segment's block is
/// read back from disk), so repeated checkpoints only re-encode the
/// head — the delta-snapshot property.
pub fn save_tiered(tib: &TieredTib) -> StoreResult<Vec<u8>> {
    let mut out = Vec::with_capacity(64 + tib.head().len() * 48);
    save_tiered_into(tib, &mut out)?;
    Ok(out)
}

/// Streaming tiered save; see [`save_tiered`]. Appends to `out`, so
/// periodic snapshotters reuse one buffer instead of allocating per save.
pub fn save_tiered_into(tib: &TieredTib, out: &mut Vec<u8>) -> StoreResult<()> {
    let blocks = tib.sealed_blocks()?;
    let mut enc = Encoder::from_vec(std::mem::take(out));
    enc.put_u32(SNAPSHOT_MAGIC_V3);
    // Persist the time-index configuration so a tuned bucket width
    // survives the round trip.
    enc.put_varint(tib.bucket_width().0);
    enc.put_varint(blocks.len() as u64);
    for block in &blocks {
        enc.put_varint(block.len() as u64);
        enc.put_raw(block);
    }
    tib.head().encode(&mut enc);
    *out = enc.into_bytes();
    Ok(())
}

/// Restores a store from snapshot bytes of either envelope. A TIB3 file
/// rebuilds its sealed segments (indexes built lazily on first query —
/// recovery stays cheap); a TIB2 file has none and loads as a head-only
/// store.
pub fn load_tiered(bytes: &[u8]) -> WireResult<TieredTib> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_u32()?;
    if magic != SNAPSHOT_MAGIC && magic != SNAPSHOT_MAGIC_V3 {
        return Err(WireError::InvalidTag(magic));
    }
    let width = dec.get_varint()?;
    if width == 0 {
        return Err(WireError::InvalidTag(0));
    }
    let mut tib = TieredTib::with_bucket_width(Nanos(width));
    if magic == SNAPSHOT_MAGIC_V3 {
        for _ in 0..dec.get_varint()? {
            let block_len = dec.get_varint()? as usize;
            let block = dec.get_raw(block_len)?.to_vec();
            // `from_bytes` enforces that the block decodes to exactly its
            // declared length — a short or overlong block is corruption.
            let records: Vec<TibRecord> = from_bytes(&block)?;
            tib.push_sealed_block(Arc::new(block), &records);
        }
    }
    // Both envelopes end with the head's record slice.
    for _ in 0..dec.get_varint()? {
        tib.insert(TibRecord::decode(&mut dec)?);
    }
    dec.finish()?;
    Ok(tib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tib::TibRead;
    use pathdump_topology::{FlowId, Ip, LinkPattern, Path, SwitchId, TimeRange};

    fn populate(n: u16) -> Vec<TibRecord> {
        (0..n)
            .map(|i| TibRecord {
                flow: FlowId::tcp(Ip::new(10, 0, 0, 2), 1000 + i, Ip::new(10, 1, 0, 2), 80),
                path: Path::new(vec![SwitchId(0), SwitchId(8 + i % 4), SwitchId(4)]),
                stime: Nanos(i as u64 * 100),
                etime: Nanos(i as u64 * 100 + 50),
                bytes: i as u64 * 1000,
                pkts: i as u64,
            })
            .collect()
    }

    fn populate_tiered(n: u16, seal_every: usize, width: Nanos) -> TieredTib {
        let mut t = TieredTib::with_bucket_width(width);
        t.set_seal_after(Some(seal_every));
        for rec in populate(n) {
            t.insert(rec);
        }
        t
    }

    const WIDTH: Nanos = crate::tib::DEFAULT_BUCKET_WIDTH;

    #[test]
    fn save_tiered_into_appends_same_bytes() {
        let t = populate_tiered(50, 20, WIDTH);
        let mut buf = vec![0xEE];
        save_tiered_into(&t, &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE, "caller prefix preserved");
        // Independently hand-built expectation (save_tiered delegates to
        // save_tiered_into, so comparing the two would be a tautology).
        let recs = populate(50);
        let mut exp = Encoder::new();
        exp.put_u32(SNAPSHOT_MAGIC_V3);
        exp.put_varint(WIDTH.0);
        exp.put_varint(2);
        for block in [&recs[..20], &recs[20..40]] {
            let block = pathdump_wire::to_bytes(block);
            exp.put_varint(block.len() as u64);
            exp.put_raw(&block);
        }
        recs[40..].encode(&mut exp);
        assert_eq!(&buf[1..], exp.bytes());
        let back = load_tiered(&buf[1..]).unwrap();
        assert_eq!(back.records_vec(), recs);
    }

    #[test]
    fn tiered_roundtrip_preserves_queries() {
        // A tuned bucket width survives the round trip like the default.
        for width in [WIDTH, Nanos(1000)] {
            let t = populate_tiered(200, 64, width);
            assert!(t.num_sealed() >= 3);
            let bytes = save_tiered(&t).unwrap();
            let back = load_tiered(&bytes).unwrap();
            assert_eq!(back.len(), t.len());
            assert_eq!(back.num_sealed(), t.num_sealed());
            assert_eq!(back.bucket_width(), width);
            assert_eq!(back.records_vec(), t.records_vec());
            assert_eq!(
                back.get_flows(LinkPattern::ANY, TimeRange::ANY),
                t.get_flows(LinkPattern::ANY, TimeRange::ANY)
            );
            assert_eq!(
                back.top_k_flows(7, TimeRange::ANY),
                t.top_k_flows(7, TimeRange::ANY)
            );
            assert_eq!(
                back.get_flows(LinkPattern::into(SwitchId(4)), TimeRange::since(Nanos(900))),
                t.get_flows(LinkPattern::into(SwitchId(4)), TimeRange::since(Nanos(900)))
            );
        }
    }

    #[test]
    fn tiered_truncation_rejected_at_every_cut() {
        // Unlike the WAL torn tail, snapshot truncation is always
        // corruption: every strict prefix must fail to load.
        let t = populate_tiered(24, 8, WIDTH);
        let bytes = save_tiered(&t).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                load_tiered(&bytes[..cut]).is_err(),
                "truncated snapshot ({cut}/{} bytes) must not load",
                bytes.len()
            );
        }
    }

    #[test]
    fn tiered_trailing_bytes_rejected() {
        let t = populate_tiered(12, 4, WIDTH);
        let mut bytes = save_tiered(&t).unwrap();
        bytes.push(0x00);
        assert!(load_tiered(&bytes).is_err());
    }

    #[test]
    fn tiered_corrupt_block_rejected() {
        // Two records per block keeps block_len a single-byte varint.
        let t = populate_tiered(6, 2, WIDTH);
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
        let mut rec = populate(1).remove(0);
        (rec.stime, rec.etime) = (Nanos(u64::MAX - 1), Nanos(u64::MAX));
        let mut flat = Encoder::new();
        flat.put_u32(SNAPSHOT_MAGIC);
        flat.put_varint(WIDTH.0);
        [rec.clone()].encode(&mut flat);
        let mut tiered = TieredTib::new();
        tiered.insert(rec);
        let head = save_tiered(&tiered).unwrap();
        tiered.seal();
        let sealed = save_tiered(&tiered).unwrap();
        for (mut bytes, delta_from_end) in [(flat.into_bytes(), 3), (head, 3), (sealed, 4)] {
            assert!(load_tiered(&bytes).is_ok());
            let delta = bytes.len() - delta_from_end;
            assert_eq!(bytes[delta], 1);
            bytes[delta] = 2;
            assert_eq!(load_tiered(&bytes).unwrap_err(), WireError::VarintOverflow);
        }
    }

    #[test]
    fn per_record_footprint_is_compact() {
        let t = populate_tiered(1000, 256, WIDTH);
        let per_record = save_tiered(&t).unwrap().len() as f64 / 1000.0;
        // The paper's MongoDB footprint is ~480 B/record; the binary
        // snapshot must be well under that.
        assert!(per_record < 64.0, "snapshot uses {per_record:.1} B/record");
    }

    #[test]
    fn delta_checkpoint_reuses_sealed_blocks() {
        // The point of the segment directory: a second checkpoint after
        // more inserts re-encodes only the head.
        let mut t = populate_tiered(100, 32, WIDTH);
        let first = save_tiered(&t).unwrap();
        for mut r in populate(10) {
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
