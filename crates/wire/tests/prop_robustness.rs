//! Decoder robustness: arbitrary input bytes must produce `Ok` or a clean
//! `Err` — never a panic, never an oversized allocation.

use pathdump_wire::{from_bytes, Frame};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_primitives(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = from_bytes::<u64>(&data);
        let _ = from_bytes::<Vec<u8>>(&data);
        let _ = from_bytes::<Vec<u32>>(&data);
        let _ = from_bytes::<Vec<(u64, u64)>>(&data);
        let _ = from_bytes::<Option<Vec<u16>>>(&data);
    }

    #[test]
    fn arbitrary_bytes_never_panic_domain_types(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        use pathdump_topology::{FlowId, LinkPattern, Path, TimeRange};
        let _ = from_bytes::<FlowId>(&data);
        let _ = from_bytes::<Path>(&data);
        let _ = from_bytes::<LinkPattern>(&data);
        let _ = from_bytes::<TimeRange>(&data);
        let _ = from_bytes::<Vec<Path>>(&data);
    }

    #[test]
    fn arbitrary_bytes_never_panic_frames(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::from_wire(&data);
        let _ = pathdump_wire::frame::split_stream(&data);
    }

    /// Corrupting any single byte of a valid frame is always detected
    /// (checksum) or yields a clean parse result — never a wrong payload
    /// accepted silently with the same type tag and length.
    #[test]
    fn single_byte_corruption_detected(
        typ in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let f = Frame::new(typ, payload);
        let mut wire = f.to_wire();
        let idx = flip_at % wire.len();
        wire[idx] ^= 1 << flip_bit;
        if let Ok((decoded, _)) = Frame::from_wire(&wire) {
            // A flip in the length prefix can re-frame the bytes; the
            // CRC over the new extent must then have matched by
            // construction impossibility — so the only acceptable Ok is
            // the original frame (flip was in trailing slack: none here).
            prop_assert_eq!(decoded, f, "corruption accepted silently");
        }
    }

    /// Every proper prefix of a valid frame fails to parse cleanly: a
    /// truncated frame is never accepted (full or re-framed) and never
    /// panics — the length prefix promises bytes the input doesn't have.
    #[test]
    fn truncation_never_accepted(
        typ in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_sel in any::<usize>(),
    ) {
        let wire = Frame::new(typ, payload).to_wire();
        let cut = cut_sel % wire.len(); // strictly shorter than the frame
        prop_assert!(Frame::from_wire(&wire[..cut]).is_err(),
            "a {}-byte prefix of a {}-byte frame parsed", cut, wire.len());
        // (An empty stream is legitimately zero frames, not an error.)
        if cut > 0 {
            prop_assert!(pathdump_wire::frame::split_stream(&wire[..cut]).is_err());
        }
    }

    /// Corrupting specifically the length prefix (which the CRC does NOT
    /// cover) must still never mis-accept: a shrunk length re-frames the
    /// bytes and the CRC over the new extent fails; a grown length runs
    /// past the input and fails as truncation; and no length value causes
    /// a panic or an oversized allocation.
    #[test]
    fn length_field_corruption_never_misaccepts(
        typ in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        new_len in any::<u32>(),
    ) {
        let f = Frame::new(typ, payload);
        let mut wire = f.to_wire();
        wire[0..4].copy_from_slice(&new_len.to_le_bytes());
        if let Ok((decoded, used)) = Frame::from_wire(&wire) {
            // Only the original length can satisfy the CRC.
            prop_assert_eq!(&decoded, &f, "re-framed bytes accepted");
            prop_assert_eq!(used, wire.len());
        }
        // Trailing garbage after a corrupted length must not break the
        // stream splitter either.
        let mut stream = wire.clone();
        stream.extend_from_slice(&f.to_wire());
        let _ = pathdump_wire::frame::split_stream(&stream);
    }
}
