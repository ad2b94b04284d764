//! The wire crate's two rewritten routines against the code they
//! replaced, which lives on here as the reference: slice-by-8 `crc32`
//! against the byte-at-a-time loop, and `Frame::build` / `Frame::parse`
//! against the old copying `to_wire` / `from_wire`. Same bytes out, same
//! `(typ, payload, used)` or the same `WireError` back, on every input
//! tried. Deterministic (exhaustive over small sizes, seeded for large
//! ones) rather than property-based: the interesting inputs are the
//! length and alignment boundaries, and those can all be listed.

use pathdump_wire::crc::crc32;
use pathdump_wire::{to_bytes, Frame, WireError, WireResult};

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The byte-at-a-time loop `crc32` replaced, with the table lookup
/// spelled out as the polynomial division it caches, so the reference
/// shares nothing with `TABLES`.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// SplitMix64, so the random buffers are the same on every run.
fn fill(seed: u64, buf: &mut [u8]) {
    let mut s = seed;
    for b in buf {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *b = (z ^ (z >> 31)) as u8;
    }
}

#[test]
fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
    let mut backing = [0u8; 8 + 130];
    fill(1, &mut backing);
    for start in 0..8 {
        for len in 0..=130 {
            let data = &backing[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
        }
    }
}

#[test]
fn slice_by_8_matches_bytewise_on_large_random_buffers() {
    for (seed, len) in [(2u64, 1_000usize), (3, 65_537), (4, 163_841), (5, 200_000)] {
        let mut buf = vec![0u8; len];
        fill(seed, &mut buf);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]), "seed {seed}");
    }
}

/// `to_wire` as it was before `seal`: the builders' reference.
fn old_to_wire(f: &Frame) -> Vec<u8> {
    let body_len = 2 + f.payload.len();
    let mut out = Vec::with_capacity(4 + body_len + 4);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&f.typ.to_le_bytes());
    out.extend_from_slice(&f.payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// `from_wire` as it was before `parse`: the parser's reference.
fn old_from_wire(input: &[u8]) -> WireResult<(Frame, usize)> {
    if input.len() < 4 {
        return Err(WireError::UnexpectedEof);
    }
    let body_len = u32::from_le_bytes(input[..4].try_into().unwrap()) as usize;
    if body_len < 2 {
        return Err(WireError::LengthOverrun);
    }
    let total = 4 + body_len + 4;
    if input.len() < total {
        return Err(WireError::UnexpectedEof);
    }
    let body = &input[4..4 + body_len];
    let crc_stored = u32::from_le_bytes(input[4 + body_len..total].try_into().unwrap());
    if crc32(body) != crc_stored {
        return Err(WireError::BadChecksum);
    }
    let typ = u16::from_le_bytes(body[..2].try_into().unwrap());
    Ok((Frame::new(typ, body[2..].to_vec()), total))
}

fn parse_owned(input: &[u8]) -> WireResult<(Frame, usize)> {
    Frame::parse(input).map(|(typ, payload, used)| (Frame::new(typ, payload.to_vec()), used))
}

#[test]
fn build_and_to_wire_match_the_old_bytes() {
    let values: Vec<Vec<(u64, Vec<u8>)>> = vec![
        vec![],
        vec![(7, "x".into())],
        (0..300)
            .map(|i| (i * 1_000_003, format!("flow-{i}").into_bytes()))
            .collect(),
    ];
    for (typ, v) in [0u16, 7, 0xBEEF].into_iter().zip(&values) {
        let f = Frame::new(typ, to_bytes(v));
        assert_eq!(Frame::build(typ, v), old_to_wire(&f));
        assert_eq!(f.to_wire(), old_to_wire(&f));
    }
}

#[test]
fn parse_matches_the_old_parser_on_every_cut_and_bit_flip() {
    for payload in [vec![], vec![0xA5], (0..=40u8).collect::<Vec<u8>>()] {
        let mut wire = Frame::new(0x0102, payload).to_wire();
        wire.extend_from_slice(&[9, 9, 9]); // a following frame's first bytes
        for cut in 0..=wire.len() {
            assert_eq!(
                parse_owned(&wire[..cut]),
                old_from_wire(&wire[..cut]),
                "cut {cut}"
            );
        }
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(parse_owned(&bad), old_from_wire(&bad), "bit {bit}");
            assert_eq!(Frame::from_wire(&bad), old_from_wire(&bad), "bit {bit}");
        }
    }
    // Lengths the CRC does not cover: too short to hold `typ`, and
    // far past the input.
    for len in [0u32, 1, 2, 1 << 20, u32::MAX] {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 12]);
        assert_eq!(parse_owned(&wire), old_from_wire(&wire), "len {len}");
    }
}
