//! The size of a histogram reply (`Response::Hist`, the flow-size
//! distribution of Figure 11) against the byte-token layout it replaced,
//! which lives on here as the size oracle.
//!
//! That layout wrote each bin as one LEB128 token, `2 × z + [count == 1]`
//! with `z` the zigzag of the wrapping step from the previous key (the
//! first against 0), and then the count as a varint unless it was 1. The
//! oracle round-trips every family below, so it is a lossless coder of the
//! same values and the byte counts compare like for like.
//!
//! The pin is on the shape a `query_fsd` host sends: a few dozen bins, the
//! small ones dense and full, then sparse elephant bins, four in five of
//! all bins holding one flow. The bitstream must be at most 80 % of the
//! oracle's bytes on every such reply tried.

use pathdump_core::Response;
use pathdump_wire::{from_bytes, to_bytes, Encoder, WireError, WireResult};

/// SplitMix64, so every reply is the same on every run.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn zigzag(prev: u64, next: u64) -> u64 {
    let step = next.wrapping_sub(prev) as i64;
    ((step << 1) ^ (step >> 63)) as u64
}

/// The byte-token layout: tag 4, `bin_bytes`, the bin count, then per bin
/// the token (up to 65 bits, so up to 10 bytes) and the count unless it
/// is 1.
fn token_bytes(bin_bytes: u64, bins: &[(u64, u64)]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(4);
    enc.put_varint(bin_bytes);
    enc.put_varint(bins.len() as u64);
    let mut prev = 0;
    for &(key, count) in bins {
        let z = zigzag(prev, key);
        let low = ((z & 0x3F) << 1) as u8 | u8::from(count == 1);
        if z >> 6 == 0 {
            enc.put_u8(low);
        } else {
            enc.put_u8(low | 0x80);
            enc.put_varint(z >> 6);
        }
        if count != 1 {
            enc.put_varint(count);
        }
        prev = key;
    }
    enc.into_bytes()
}

/// Reads [`token_bytes`] back.
fn token_decode(bytes: &[u8]) -> WireResult<(u64, Vec<(u64, u64)>)> {
    let mut pos = 0;
    let varint = |pos: &mut usize| pathdump_wire::read_varint(bytes, pos);
    if bytes.first() != Some(&4) {
        return Err(WireError::InvalidTag(0));
    }
    pos += 1;
    let bin_bytes = varint(&mut pos)?;
    let n = varint(&mut pos)?;
    let mut bins = Vec::new();
    let mut key = 0u64;
    for _ in 0..n {
        let low = *bytes.get(pos).ok_or(WireError::UnexpectedEof)?;
        pos += 1;
        let mut z = u64::from((low >> 1) & 0x3F);
        if low & 0x80 != 0 {
            z |= varint(&mut pos)? << 6;
        }
        key = key.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
        let count = if low & 1 == 1 { 1 } else { varint(&mut pos)? };
        bins.push((key, count));
    }
    if pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - pos));
    }
    Ok((bin_bytes, bins))
}

/// A reply shaped like one `query_fsd` host's: the small bins dense and
/// full, then sparse elephant bins, each holding one flow 96 times in 100.
fn fsd_shaped(m: &mut Mix, n: usize) -> Vec<(u64, u64)> {
    let dense = n / 6;
    let mut bins: Vec<_> = (0..dense as u64).map(|k| (k, 2 + m.below(500))).collect();
    let mut key = dense as u64;
    while bins.len() < n {
        key += 1 + m.below(60);
        let count = if m.below(100) < 96 { 1 } else { 2 + m.below(3) };
        bins.push((key, count));
    }
    bins
}

/// The library's bytes of a reply, after checking that it round-trips.
fn bitstream_bytes(bin_bytes: u64, bins: &[(u64, u64)]) -> usize {
    let r = Response::Hist {
        bin_bytes,
        bins: bins.to_vec(),
    };
    let bytes = to_bytes(&r);
    assert_eq!(from_bytes::<Response>(&bytes).as_ref(), Ok(&r));
    bytes.len()
}

#[test]
fn the_oracle_round_trips() {
    let mut m = Mix(1);
    let max = u64::MAX;
    let mut cases = vec![
        vec![],
        vec![(0, 0)],
        vec![(max, max), (0, 1), (max, 0), (1 << 63, 1)],
        (0..500).map(|k| (k, 1 + k % 3)).collect(),
        (0..500).rev().map(|k| (k * 1_009, 1)).collect(),
    ];
    cases.extend([60, 72, 84].map(|n| fsd_shaped(&mut m, n)));
    cases.push(
        (0..300)
            .map(|_| (m.next(), m.next() >> m.below(64)))
            .collect(),
    );
    for bins in cases {
        let bytes = token_bytes(10_000, &bins);
        assert_eq!(token_decode(&bytes), Ok((10_000, bins)));
    }
}

#[test]
fn a_query_fsd_host_reply_is_at_most_four_fifths_of_the_token_layout() {
    let mut m = Mix(5);
    let (mut new, mut old) = (0, 0);
    for n in (48..=96).step_by(12) {
        for _ in 0..20 {
            let bins = fsd_shaped(&mut m, n);
            let ones = bins.iter().filter(|b| b.1 == 1).count();
            assert!(ones * 10 >= n * 7, "{ones} of {n} bins hold one flow");
            let (b, t) = (
                bitstream_bytes(10_000, &bins),
                token_bytes(10_000, &bins).len(),
            );
            assert!(b * 5 <= t * 4, "{n} bins: {b} B against {t} B");
            (new, old) = (new + b, old + t);
        }
    }
    // Over the lot, the replies take under three quarters of the bytes
    // (73.6 % today).
    assert!(new * 4 <= old * 3, "{new} B against {old} B");
}
