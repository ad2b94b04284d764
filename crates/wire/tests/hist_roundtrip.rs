//! Value-level round trips of histogram replies (`Response::Hist`, the
//! flow-size-distribution answer of Figure 11). Every reply decodes back to
//! itself, bare and inside a framed `ReplyMsg`; every cut of the encoding
//! is an error; no single-bit flip panics the decoder.
//!
//! A reply is one bitstream: a header byte with an ascending flag and an
//! exp-Golomb order `k`, then per bin the order-`k` code of the key's gap
//! (or of its zigzag step when the keys do not strictly ascend) and the
//! order-0 code of `count − 1`, zero-padded to a byte. The families are the
//! boundaries such an encoding has to get right.
//!
//! - The shapes replies take: no bin and one bin; dense keys `0..n`, a
//!   host's answer; the size a merge of many hosts reaches; the shape a
//!   `query_fsd` host sends (a few dozen bins, four in five of them one
//!   flow); replies whose every bin holds one flow.
//! - The older layout's byte boundaries, kept as they were: gaps between
//!   keys at the widths where a zigzag varint grows a byte (63/64,
//!   8 191/8 192 and 2^20 ± 1) both ways, and steps at which a byte token
//!   with a count flag grew.
//! - Keys and counts at 0, 1, `u64::MAX − 1` and `u64::MAX` side by side,
//!   so a step between neighbours wraps both ways; count 0 and count
//!   `u64::MAX`, whose codes are the longest (129 and 127 bits).
//! - The order at both ends: `k = 0` and the largest, `k = 63`, read back
//!   from the header.
//! - Codes at `2^k·(2^j − 1)` and one either side, for every `j` at
//!   several orders `k`: where adding `2^k` carries into a new bit and the
//!   code grows by two; `u64::MAX` at `k = 0` among them.
//! - The ascending flag off: keys out of order and repeated keys, each
//!   checked against the header.
//!
//! Proptests mix them (their depth is `PROPTEST_CASES`; CI runs 512).

use pathdump_core::Response;
use pathdump_rpc::{Coverage, ReplyMsg, FRAME_RPC_REPLY};
use pathdump_wire::{from_bytes, read_varint, to_bytes, Frame};
use proptest::prelude::*;

/// SplitMix64, so every family is the same on every run.
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

const MAX: u64 = u64::MAX;

/// Keys and counts at both ends of `u64`.
const EXTREMES: [u64; 4] = [0, 1, MAX - 1, MAX];

/// Steps between neighbouring keys on both sides of each width at which a
/// zigzag varint grows a byte.
const GAPS: [u64; 7] = [63, 64, 8_191, 8_192, (1 << 20) - 1, 1 << 20, (1 << 20) + 1];

/// Bin widths: the paper's, the degenerate ones and the largest.
const WIDTHS: [u64; 4] = [10_000, 0, 1, MAX];

fn hist(bin_bytes: u64, bins: Vec<(u64, u64)>) -> Response {
    Response::Hist { bin_bytes, bins }
}

/// A count of any magnitude: a random value shifted right by a random
/// amount, so one-byte and ten-byte varints are both common.
fn any_count(m: &mut Mix) -> u64 {
    let s = m.below(64);
    m.next() >> s
}

/// Keys `0..n`, each with a count, as a host's answer has them.
fn dense(m: &mut Mix, n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|key| (key, 1 + m.below(300))).collect()
}

/// Ascending keys whose steps cycle through [`GAPS`].
fn gapped(start: u64) -> Vec<(u64, u64)> {
    let mut key = start;
    let mut bins = vec![(key, 1)];
    for (i, &g) in GAPS.iter().cycle().take(3 * GAPS.len()).enumerate() {
        key += g;
        bins.push((key, i as u64));
    }
    bins
}

fn shuffled(m: &mut Mix, mut bins: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    for i in (1..bins.len()).rev() {
        bins.swap(i, m.below(i as u64 + 1) as usize);
    }
    bins
}

fn reply(response: Response) -> ReplyMsg {
    ReplyMsg {
        req_id: 0xDEAD_BEEF,
        response,
        coverage: Coverage {
            answered: vec![0, 5, 300],
            missed: vec![7],
            timed_out: vec![70_000],
        },
    }
}

/// Every cut of an encoding of `len` bytes if it is short; the first and
/// last 32 and 32 in between if it is long.
fn cuts(len: usize) -> Vec<usize> {
    if len <= 2048 {
        return (0..len).collect();
    }
    let mut v: Vec<usize> = (0..32).chain(len - 32..len).collect();
    v.extend((1..=32).map(|i| i * (len - 64) / 33 + 32));
    v
}

/// Every bit of a short encoding; 64 seeded bits of a long one.
fn bits(len: usize) -> Vec<usize> {
    if len * 8 <= 4096 {
        return (0..len * 8).collect();
    }
    let mut m = Mix(len as u64);
    (0..64).map(|_| m.below(len as u64 * 8) as usize).collect()
}

/// Round trips bare, in a `ReplyMsg` and in its frame; every cut of the
/// frame, and [`cuts`] of the bare and message encodings, are errors; no
/// flip of [`bits`] panics either decoder.
fn check(r: &Response) {
    let bare = to_bytes(r);
    assert_eq!(from_bytes::<Response>(&bare).as_ref(), Ok(r), "bare");
    let msg = reply(r.clone());
    let payload = to_bytes(&msg);
    assert_eq!(from_bytes::<ReplyMsg>(&payload).as_ref(), Ok(&msg), "msg");
    let wire = Frame::build(FRAME_RPC_REPLY, &msg);
    let (typ, p, used) = Frame::parse(&wire).expect("a built frame parses");
    assert_eq!((typ, used), (FRAME_RPC_REPLY, wire.len()));
    assert_eq!(from_bytes::<ReplyMsg>(p).as_ref(), Ok(&msg), "framed");

    for cut in 0..wire.len() {
        let back = Frame::parse(&wire[..cut]).and_then(|(_, p, _)| from_bytes::<ReplyMsg>(p));
        assert!(back.is_err(), "cut {cut} of a {}-byte frame", wire.len());
    }
    for cut in cuts(bare.len()) {
        assert!(
            from_bytes::<Response>(&bare[..cut]).is_err(),
            "cut {cut} of {}",
            bare.len()
        );
    }
    for cut in cuts(payload.len()) {
        assert!(
            from_bytes::<ReplyMsg>(&payload[..cut]).is_err(),
            "cut {cut} of {}",
            payload.len()
        );
    }
    let mut bad = bare;
    for bit in bits(bad.len()) {
        bad[bit / 8] ^= 1 << (bit % 8);
        let _ = from_bytes::<Response>(&bad);
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    let mut bad = payload;
    for bit in bits(bad.len()) {
        bad[bit / 8] ^= 1 << (bit % 8);
        let _ = from_bytes::<ReplyMsg>(&bad);
        bad[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn empty_and_one_bin_replies_round_trip() {
    for &w in &WIDTHS {
        check(&hist(w, vec![]));
        for &key in &EXTREMES {
            for &count in &EXTREMES {
                check(&hist(w, vec![(key, count)]));
            }
        }
        check(&hist(w, vec![(64, 3)]));
    }
}

#[test]
fn dense_keys_round_trip() {
    let mut m = Mix(1);
    for n in [2, 127, 128, 129, 1_000] {
        check(&hist(10_000, dense(&mut m, n)));
    }
}

#[test]
fn gaps_at_the_zigzag_width_boundaries_round_trip() {
    for start in [0, 1, 1 << 40, MAX - 30 * (1 << 20)] {
        let up = gapped(start);
        check(&hist(10_000, up.clone()));
        // The same steps downwards.
        let down: Vec<_> = up.into_iter().rev().collect();
        check(&hist(10_000, down));
    }
    // Each step alone, from 0 and back to 0.
    for &g in &GAPS {
        check(&hist(1, vec![(0, 1), (g, 2)]));
        check(&hist(1, vec![(g, 1), (0, 2)]));
    }
}

#[test]
fn descending_shuffled_and_repeated_keys_round_trip() {
    let mut m = Mix(2);
    let asc = dense(&mut m, 500);
    let desc: Vec<_> = asc.iter().rev().copied().collect();
    check(&hist(10_000, desc));
    check(&hist(10_000, shuffled(&mut m, asc.clone())));
    let sparse: Vec<_> = (0..300u64)
        .map(|i| (i * i * 1_009, any_count(&mut m)))
        .collect();
    check(&hist(10_000, shuffled(&mut m, sparse)));
    // One key repeated, adjacent and apart, with equal and other counts.
    check(&hist(10_000, vec![(5, 1), (5, 1), (5, 9), (0, 1), (5, 2)]));
    let repeated: Vec<_> = (0..2_000)
        .map(|_| (m.below(20), any_count(&mut m)))
        .collect();
    check(&hist(10_000, repeated));
    check(&hist(10_000, vec![(MAX, 1); 300]));
}

#[test]
fn extreme_keys_and_counts_round_trip() {
    // Every ordered pair of extremes side by side, as keys and as counts:
    // the step between neighbouring keys takes every value from `0 - MAX`
    // to `MAX - 0`.
    let mut bins = Vec::new();
    for &a in &EXTREMES {
        for &b in &EXTREMES {
            let c = EXTREMES[bins.len() % EXTREMES.len()];
            bins.push((a, c));
            bins.push((b, MAX - c));
        }
    }
    for &w in &WIDTHS {
        check(&hist(w, bins.clone()));
    }
    let mut sorted = bins;
    sorted.sort_unstable();
    check(&hist(10_000, sorted));
}

#[test]
fn a_merged_size_reply_round_trips() {
    // Keys mostly dense with the occasional jump, as a merge of many hosts'
    // answers has them, counts up to a few thousand.
    let mut m = Mix(3);
    let mut key = 0u64;
    let bins: Vec<_> = (0..3_000)
        .map(|_| {
            key += if m.below(10) == 0 {
                1 + m.below(5_000)
            } else {
                1
            };
            (key, 1 + m.below(4_000))
        })
        .collect();
    check(&hist(10_000, bins.clone()));
    check(&hist(10_000, shuffled(&mut m, bins)));
}

/// Steps on both sides of each width at which a key step, with a count
/// flag beside it or not, grows a byte: ±31/±32/±33 and ±4 095/±4 096/
/// ±4 097 for the step with a flag, ±63/±64 and ±8 191/±8 192 for the step
/// alone.
const STEPS: [u64; 10] = [31, 32, 33, 63, 64, 4_095, 4_096, 4_097, 8_191, 8_192];

#[test]
fn count_one_against_other_counts_at_each_step_width_round_trips() {
    for &s in &STEPS {
        for start in [0, 1 << 40, MAX - 9_000] {
            for count in [0, 1, 2, 127, 128, MAX] {
                // The step up and the step down, and the count on both bins
                // or on the second alone.
                check(&hist(10_000, vec![(start, count), (start + s, count)]));
                check(&hist(10_000, vec![(start + s, 1), (start, count)]));
                check(&hist(10_000, vec![(start + s, count), (start, 1)]));
            }
        }
        // The same step over a run of bins, counts 1 and otherwise mixed.
        let run: Vec<_> = (0..40u64)
            .map(|i| (i * s, 1 + (i % 3 == 0) as u64))
            .collect();
        check(&hist(10_000, run.clone()));
        check(&hist(10_000, run.into_iter().rev().collect()));
    }
}

#[test]
fn count_zero_round_trips() {
    check(&hist(10_000, vec![(0, 0)]));
    check(&hist(10_000, vec![(MAX, 0), (0, 0), (MAX, 1), (3, 0)]));
    check(&hist(10_000, (0..500).map(|k| (k, k % 2)).collect()));
}

#[test]
fn count_one_at_the_largest_steps_round_trips() {
    // `u64::MAX` from 0 (a step of −1) and from `u64::MAX − 1` (+1).
    check(&hist(10_000, vec![(MAX, 1)]));
    check(&hist(10_000, vec![(MAX - 1, 1), (MAX, 1)]));
    check(&hist(10_000, vec![(MAX - 1, 7), (MAX, 1), (0, 1)]));
    // Steps of magnitude 2^62 and more zigzag to 2^63 and more: with the
    // count flag beside it, the step needs all 65 bits.
    let half = 1u64 << 63;
    for key in [1 << 62, half - 1, half, half + 1, MAX - (1 << 62)] {
        for count in [0, 1, 2, MAX] {
            check(&hist(10_000, vec![(key, count)]));
            check(&hist(10_000, vec![(key, count), (0, 1), (key, 1)]));
        }
    }
}

#[test]
fn a_ten_byte_step_past_bit_64_is_an_error() {
    // Tag 4, a bin width of 1, one bin, then a key step whose tenth byte
    // sets bit 65 or higher: no layout of a step and a count reads that.
    for last in [0x04u8, 0x08, 0x40, 0x7F] {
        let mut bare = vec![4, 1, 1];
        bare.extend([0xFF; 9]);
        bare.extend([last, 1, 1]);
        assert!(
            from_bytes::<Response>(&bare).is_err(),
            "tenth byte {last:#x}"
        );
    }
}

#[test]
fn an_all_count_one_reply_round_trips() {
    let mut m = Mix(4);
    let dense: Vec<_> = (0..3_000u64).map(|k| (k, 1)).collect();
    check(&hist(10_000, dense.clone()));
    check(&hist(10_000, shuffled(&mut m, dense)));
    let mut key = 0u64;
    let sparse: Vec<_> = (0..3_000)
        .map(|_| {
            key += 1 + m.below(10_000);
            (key, 1)
        })
        .collect();
    check(&hist(10_000, sparse.clone()));
    check(&hist(10_000, sparse.into_iter().rev().collect()));
}

/// A reply shaped like one `query_fsd` host's or subtree's: the small bins
/// dense and full, then the sparse elephant bins, about four in five bins
/// of the reply holding one flow.
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

#[test]
fn a_query_fsd_shaped_reply_round_trips() {
    let mut m = Mix(5);
    for n in [60, 72, 84] {
        let bins = fsd_shaped(&mut m, n);
        let ones = bins.iter().filter(|b| b.1 == 1).count();
        assert!(ones * 10 >= n * 7, "{ones} of {n} bins hold one flow");
        check(&hist(10_000, bins.clone()));
        check(&hist(10_000, shuffled(&mut m, bins)));
    }
}

/// The ascending flag and the order `k` in the header of `r`'s encoding.
fn header(r: &Response) -> (bool, u32) {
    let bare = to_bytes(r);
    let mut pos = 1;
    read_varint(&bare, &mut pos).expect("bin width");
    read_varint(&bare, &mut pos).expect("bin count");
    (bare[pos] & 0x40 != 0, u32::from(bare[pos] & 0x3F))
}

/// Bins out of ascending order whose key codes are `codes`: each key is
/// the step from the one before it (the first from 0) that zigzags to its
/// code. Counts cycle through [`EXTREMES`].
fn zigzag_coded(codes: &[u64]) -> Vec<(u64, u64)> {
    let mut key = 0u64;
    let bins: Vec<_> = codes
        .iter()
        .enumerate()
        .map(|(i, &z)| {
            key = key.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
            (key, EXTREMES[i % EXTREMES.len()])
        })
        .collect();
    assert!(bins.windows(2).any(|w| w[0].0 >= w[1].0));
    bins
}

#[test]
fn the_smallest_and_the_largest_order_round_trip() {
    // Gaps of 0 take one bit at order 0.
    let dense: Vec<_> = (0..200).map(|k| (k, 1)).collect();
    // Two gaps of 2^63 − 1 take 64 bits each at order 63, 65 at order 62.
    let top = vec![((1 << 63) - 1, 1), (MAX, 1)];
    for (bins, k) in [(dense, 0), (top, 63), (vec![(MAX, 0)], 63)] {
        let r = hist(10_000, bins);
        assert_eq!(header(&r), (true, k));
        check(&r);
    }
    // Out of order: steps of 0 zigzag to 0, and steps of −2^62 to
    // 2^63 − 1.
    let repeated = hist(10_000, vec![(7, 2); 100]);
    assert_eq!(header(&repeated), (false, 0));
    check(&repeated);
    let swing: Vec<_> = (0..100u64).map(|i| (i.wrapping_mul(3 << 62), i)).collect();
    let swing = hist(10_000, swing);
    assert_eq!(header(&swing), (false, 63));
    check(&swing);
}

#[test]
fn codes_where_the_carry_grows_them_round_trip() {
    for k in [0, 1, 2, 7, 31, 62, 63] {
        // One code either side of and at each `2^k·(2^j − 1)`.
        let mut edges = Vec::new();
        for j in 1..=64 - k {
            let v = (MAX >> (64 - j)) << k;
            edges.extend([v.wrapping_sub(1), v, v.saturating_add(1)]);
        }
        // Codes of `2^k − 1`, twice as many as the edges and more, take
        // one bit more at any other order, which pins the order at `k`.
        let mut codes = vec![0, 0];
        for (i, &e) in edges.iter().enumerate() {
            codes.extend([(1u64 << k) - 1, (1u64 << k) - 1, e]);
            if i % 8 == 0 {
                codes.push((1u64 << k) - 1);
            }
        }
        codes.extend(vec![(1u64 << k) - 1; 12]);
        assert!(k > 0 || edges.contains(&MAX));
        let r = hist(10_000, zigzag_coded(&codes));
        assert_eq!(header(&r), (false, k), "order {k}");
        check(&r);
    }
}

#[test]
fn count_zero_and_count_max_round_trip_at_every_order() {
    for k in [0, 5, 40, 63] {
        // Ascending keys `2^k − 1` apart pin order `k`.
        let step = 1u64 << k;
        let n = if k == 63 { 2 } else { 60 };
        let bins: Vec<_> = (0..n)
            .map(|i| {
                (
                    i * step + (step - 1),
                    [0, MAX, MAX - 1, 1, 2][i as usize % 5],
                )
            })
            .collect();
        let r = hist(10_000, bins.clone());
        assert_eq!(header(&r), (true, k), "order {k}");
        check(&r);
        let r = hist(10_000, bins.into_iter().rev().collect());
        assert!(!header(&r).0);
        check(&r);
    }
    check(&hist(0, vec![(0, 0), (MAX, MAX)]));
    check(&hist(MAX, vec![(MAX, 0), (0, MAX)]));
}

#[test]
fn the_ascending_flag_is_off_for_any_other_order() {
    let mut m = Mix(6);
    let asc: Vec<_> = (0..300u64).map(|k| (k * 3 + m.below(3), 1)).collect();
    assert!(header(&hist(10_000, asc.clone())).0);
    let mut descending = asc.clone();
    descending.reverse();
    let mut one_swap = asc.clone();
    one_swap.swap(150, 151);
    let mut one_repeat = asc.clone();
    one_repeat[200].0 = one_repeat[199].0;
    let mut last_repeat = asc.clone();
    last_repeat.push(*asc.last().unwrap());
    for bins in [
        descending,
        one_swap,
        one_repeat,
        last_repeat,
        shuffled(&mut m, asc),
        vec![(MAX, 1), (MAX, 1)],
        vec![(1, 1), (0, 1)],
    ] {
        let r = hist(10_000, bins);
        assert!(!header(&r).0, "{r:?}");
        check(&r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replies in which at least four bins in five hold one flow, in any
    /// key order: round trip bare, in a message and in a frame; every cut
    /// is an error; no bit flip panics.
    #[test]
    fn mostly_count_one_replies_round_trip(
        seed in any::<u64>(),
        n in 0u64..200,
        width in 0usize..4,
        order in 0u8..3,
    ) {
        let mut m = Mix(seed);
        let mut bins: Vec<_> = (0..n)
            .map(|i| {
                let key = match m.below(3) {
                    0 => i,
                    1 => m.below(1 << 20),
                    _ => any_count(&mut m),
                };
                // Only every fifth bin may hold other than one flow.
                let count = if i % 5 == 4 { any_count(&mut m) } else { 1 };
                (key, count)
            })
            .collect();
        match order {
            0 => bins.sort_unstable(),
            1 => bins.reverse(),
            _ => {}
        }
        let ones = bins.iter().filter(|b| b.1 == 1).count();
        prop_assert!(ones * 5 >= bins.len() * 4);
        check(&hist(WIDTHS[width], bins));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The families mixed at random: round trips bare, in a message and in
    /// a frame; one cut is an error; one bit flip does not panic.
    #[test]
    fn arbitrary_hist_replies_round_trip(
        seed in any::<u64>(),
        n in 0u64..400,
        family in 0u8..5,
        width in 0usize..4,
        cut_sel in any::<usize>(),
        flip_sel in any::<usize>(),
    ) {
        let mut m = Mix(seed);
        let mut bins = match family {
            0 => dense(&mut m, n),
            1 => gapped(m.below(1 << 40)),
            2 => (0..n).map(|_| (any_count(&mut m), any_count(&mut m))).collect(),
            3 => (0..n).map(|_| (m.below(8), m.below(3))).collect(),
            _ => (0..n)
                .map(|_| (EXTREMES[m.below(4) as usize], EXTREMES[m.below(4) as usize]))
                .collect(),
        };
        match m.below(3) {
            0 => bins.sort_unstable(),
            1 => bins.reverse(),
            _ => {}
        }
        let r = hist(WIDTHS[width], bins);
        let bare = to_bytes(&r);
        prop_assert_eq!(from_bytes::<Response>(&bare), Ok(r.clone()));
        let msg = reply(r);
        let wire = Frame::build(FRAME_RPC_REPLY, &msg);
        let back = Frame::parse(&wire).and_then(|(_, p, _)| from_bytes::<ReplyMsg>(p));
        prop_assert_eq!(back, Ok(msg.clone()));
        let cut = cut_sel % bare.len();
        prop_assert!(from_bytes::<Response>(&bare[..cut]).is_err(), "cut {}", cut);
        let payload = to_bytes(&msg);
        let cut = cut_sel % payload.len();
        prop_assert!(from_bytes::<ReplyMsg>(&payload[..cut]).is_err(), "cut {}", cut);
        let mut bad = payload;
        let bit = flip_sel % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        let _ = from_bytes::<ReplyMsg>(&bad);
    }
}
