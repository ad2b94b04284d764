//! Value-level round trips of the flow lists on the management network:
//! top-k replies, the largest message, and flow-list replies
//! (`Response::Flows`: GetFlows, HeavyHitters, GetPoorTcp). Every reply
//! decodes back to itself, bare and inside a framed `ReplyMsg`; every cut
//! of the encoding is an error; no single-bit flip panics the decoder.
//!
//! The families are the boundaries a compact encoding of the entry list has
//! to get right: entries in and out of the store's order and with a flow
//! repeated; byte counts at 0 and `u64::MAX` and their neighbours, side by
//! side so that the difference between neighbours wraps both ways; runs of
//! equal counts; more than 128 and more than 16 384 distinct sources (an
//! index of two and of three varint bytes); one destination and
//! all-distinct destinations; every protocol form; `k = 0` and an empty
//! list. Flow lists mirror them without the counts: empty, one source, one
//! destination and both; more than 128 and 16 384 distinct sources and
//! destinations; every protocol form; the same flow repeated. A proptest
//! per reply mixes them (its depth is `PROPTEST_CASES`; CI runs 512).

use pathdump_core::Response;
use pathdump_rpc::{Coverage, ReplyMsg, FRAME_RPC_REPLY};
use pathdump_topology::{FlowId, Ip, Protocol};
use pathdump_wire::{from_bytes, to_bytes, Frame};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// Protocols that decode to themselves: `Other(6)` and `Other(17)` are
/// written as the numbers of `Tcp` and `Udp` and read back as those.
const PROTOS: [Protocol; 6] = [
    Protocol::Tcp,
    Protocol::Udp,
    Protocol::Other(0),
    Protocol::Other(1),
    Protocol::Other(89),
    Protocol::Other(255),
];

const MAX: u64 = u64::MAX;

/// Byte counts at both ends of `u64` and their neighbours.
const EXTREMES: [u64; 6] = [0, 1, 2, MAX - 2, MAX - 1, MAX];

/// The `d`-th destination `(address, port, protocol)`.
fn dest(d: u32) -> (Ip, u16, Protocol) {
    (
        Ip(0x0B00_0000 ^ d.wrapping_mul(0x9E37_79B9)),
        d.wrapping_mul(7919) as u16,
        PROTOS[d as usize % PROTOS.len()],
    )
}

fn flow(src: u32, src_port: u16, d: u32) -> FlowId {
    let (dst_ip, dst_port, proto) = dest(d);
    FlowId {
        src_ip: Ip(src),
        dst_ip,
        src_port,
        dst_port,
        proto,
    }
}

/// A byte count of any magnitude: a random value shifted right by a random
/// amount, so one-byte and ten-byte varints are both common.
fn any_bytes(m: &mut Mix) -> u64 {
    let s = m.below(64);
    m.next() >> s
}

/// `n` entries drawn from `sources` source addresses and `dests`
/// destinations, in no particular order.
fn random_entries(m: &mut Mix, n: usize, sources: u32, dests: u32) -> Vec<(u64, FlowId)> {
    (0..n)
        .map(|_| {
            let src = 0x0A00_0000 + m.below(u64::from(sources)) as u32;
            let d = m.below(u64::from(dests)) as u32;
            (any_bytes(m), flow(src, m.next() as u16, d))
        })
        .collect()
}

/// The store's and the merge's order: `(bytes, flow)` descending.
fn sorted(mut entries: Vec<(u64, FlowId)>) -> Vec<(u64, FlowId)> {
    entries.sort_unstable_by(|a, b| b.cmp(a));
    entries
}

fn top_k(k: u32, entries: Vec<(u64, FlowId)>) -> Response {
    Response::TopK { k, entries }
}

/// The flows of `entries`, in their order.
fn flows(entries: Vec<(u64, FlowId)>) -> Response {
    Response::Flows(entries.into_iter().map(|e| e.1).collect())
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
/// last 32 and 32 in between if it is long (a decode of a long prefix
/// costs its length).
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
fn sorted_and_unsorted_entries_round_trip() {
    let mut m = Mix(1);
    let entries = random_entries(&mut m, 1_000, 50, 3);
    check(&top_k(1_000, entries.clone()));
    let desc = sorted(entries);
    check(&top_k(1_000, desc.clone()));
    let asc: Vec<_> = desc.into_iter().rev().collect();
    check(&top_k(1_000, asc));
}

#[test]
fn duplicate_flows_round_trip() {
    let f = flow(0x0A00_0001, 40_000, 0);
    let g = flow(0x0A00_0002, 40_000, 0);
    // The same entry twice, the same flow with other counts, adjacent and
    // apart, and two flows that differ only in their source.
    let entries = vec![
        (500, f),
        (500, f),
        (400, g),
        (700, f),
        (400, g),
        (0, f),
        (MAX, f),
        (500, f),
    ];
    check(&top_k(8, entries.clone()));
    check(&top_k(3, sorted(entries)));
    let mut m = Mix(2);
    let pool = random_entries(&mut m, 40, 10, 2);
    let repeated: Vec<_> = (0..2_000)
        .map(|_| pool[m.below(pool.len() as u64) as usize])
        .collect();
    check(&top_k(2_000, repeated));
}

#[test]
fn extreme_byte_counts_round_trip() {
    let f = |i: usize| flow(0x0A00_0000 + i as u32, i as u16, 0);
    // Every ordered pair of extremes side by side: the step between
    // neighbours takes every value from `0 - MAX` to `MAX - 0`.
    let mut pairs = Vec::new();
    for &a in &EXTREMES {
        for &b in &EXTREMES {
            let i = pairs.len();
            pairs.push((a, f(i)));
            pairs.push((b, f(i + 1)));
        }
    }
    check(&top_k(u32::MAX, pairs.clone()));
    check(&top_k(u32::MAX, sorted(pairs)));
    for &v in &EXTREMES {
        check(&top_k(1, vec![(v, f(0))]));
    }
}

#[test]
fn runs_of_equal_counts_round_trip() {
    let mut m = Mix(3);
    let mut entries = Vec::new();
    for (run, &v) in [7u64, 7, 0, MAX, 1 << 40, 1, MAX, 0].iter().enumerate() {
        for _ in 0..1 + run * 5 {
            let i = entries.len() as u32;
            entries.push((v, flow(0x0A00_0000 + m.below(20) as u32, i as u16, i % 3)));
        }
    }
    check(&top_k(10_000, entries.clone()));
    check(&top_k(10_000, sorted(entries)));
    let all_equal: Vec<_> = (0..3_000u32)
        .map(|i| (65_000, flow(0x0A00_0000 + i % 127, i as u16, 0)))
        .collect();
    check(&top_k(10_000, all_equal));
}

#[test]
fn two_and_three_byte_indices_round_trip() {
    let mut m = Mix(4);
    for sources in [128u32, 129, 300, 16_384, 16_385] {
        // Every source once, in a seeded order, then some again.
        let mut entries: Vec<_> = (0..sources)
            .map(|s| {
                (
                    any_bytes(&mut m),
                    flow(0x0A00_0000 + s * 3, s as u16, s % 2),
                )
            })
            .collect();
        for i in 0..entries.len() {
            let j = m.below(i as u64 + 1) as usize;
            entries.swap(i, j);
        }
        let again: Vec<_> = entries.iter().step_by(7).copied().collect();
        entries.extend(again);
        check(&top_k(sources, entries.clone()));
        check(&top_k(sources, sorted(entries)));
    }
    for dests in [129u32, 16_385] {
        let entries: Vec<_> = (0..dests)
            .map(|d| (any_bytes(&mut m), flow(0x0A00_0001, 1, d)))
            .collect();
        check(&top_k(dests, entries));
    }
}

#[test]
fn one_and_all_distinct_destinations_round_trip() {
    let mut m = Mix(5);
    let one = random_entries(&mut m, 2_000, 127, 1);
    check(&top_k(10_000, sorted(one)));
    let distinct: Vec<_> = (0..2_000u32)
        .map(|d| (any_bytes(&mut m), flow(0x0A00_0000 + d % 127, d as u16, d)))
        .collect();
    check(&top_k(10_000, distinct.clone()));
    check(&top_k(10_000, sorted(distinct)));
}

#[test]
fn every_protocol_round_trips() {
    let mut entries = Vec::new();
    for (i, &proto) in PROTOS.iter().enumerate() {
        // Flows that differ only in their protocol.
        for f in [
            FlowId {
                src_ip: Ip::new(10, 0, 0, 2),
                dst_ip: Ip::new(10, 1, 0, 2),
                src_port: 4_000,
                dst_port: 53,
                proto,
            },
            FlowId {
                src_ip: Ip(u32::MAX),
                dst_ip: Ip(0),
                src_port: u16::MAX,
                dst_port: 0,
                proto,
            },
        ] {
            entries.push((1_000 - i as u64, f));
        }
    }
    check(&top_k(12, entries.clone()));
    check(&top_k(12, sorted(entries)));
    let udp: Vec<_> = (0..500u32)
        .map(|i| (i as u64 * 3, flow(0x0A00_0000 + i % 9, i as u16, 1)))
        .collect();
    assert!(udp.iter().all(|e| e.1.proto == Protocol::Udp));
    check(&top_k(500, udp));
}

#[test]
fn empty_lists_and_zero_k_round_trip() {
    check(&top_k(0, vec![]));
    check(&top_k(10_000, vec![]));
    check(&top_k(u32::MAX, vec![]));
    let mut m = Mix(6);
    check(&top_k(0, random_entries(&mut m, 3, 2, 2)));
    check(&top_k(0, vec![(0, flow(0, 0, 0))]));
}

#[test]
fn empty_flow_lists_and_one_source_or_destination_round_trip() {
    check(&Response::Flows(vec![]));
    check(&Response::Flows(vec![flow(0, 0, 0)]));
    check(&Response::Flows(vec![flow(u32::MAX, u16::MAX, 5)]));
    let mut m = Mix(7);
    // One source (a GetPoorTcp reply), one destination (a host's GetFlows
    // into itself), both, and neither.
    for (sources, dests) in [(1, 40), (127, 1), (1, 1), (127, 40)] {
        let list = random_entries(&mut m, 2_000, sources, dests);
        check(&flows(list.clone()));
        check(&flows(sorted(list)));
    }
    // One source and one destination, differing only in the source port.
    let ports: Vec<_> = (0..3_000u32)
        .map(|i| flow(0x0A00_0001, i as u16, 0))
        .collect();
    check(&Response::Flows(ports));
}

#[test]
fn flow_lists_with_two_and_three_byte_indices_round_trip() {
    let mut m = Mix(8);
    for sources in [128u32, 129, 300, 16_384, 16_385] {
        // Every source once, in a seeded order, then some again; one
        // destination and then two.
        for dests in [1, 2] {
            let mut list: Vec<_> = (0..sources)
                .map(|s| flow(0x0A00_0000 + s * 3, s as u16, s % dests))
                .collect();
            for i in 0..list.len() {
                let j = m.below(i as u64 + 1) as usize;
                list.swap(i, j);
            }
            let again: Vec<_> = list.iter().step_by(7).copied().collect();
            list.extend(again);
            check(&Response::Flows(list));
        }
    }
    for dests in [128u32, 129, 16_384, 16_385] {
        for sources in [1, 3] {
            let list: Vec<_> = (0..dests)
                .map(|d| flow(0x0A00_0001 + d % sources, d as u16, d))
                .collect();
            check(&Response::Flows(list));
        }
    }
    // Both tables past 128 and past 16 384.
    let both: Vec<_> = (0..17_000u32)
        .map(|i| flow(0x0A00_0000 + i, i as u16, i.wrapping_mul(7) % 16_500))
        .collect();
    check(&Response::Flows(both));
}

#[test]
fn every_protocol_round_trips_in_a_flow_list() {
    let mut list = Vec::new();
    for &proto in &PROTOS {
        // Flows that differ only in their protocol.
        for src in [Ip::new(10, 0, 0, 2), Ip(u32::MAX)] {
            list.push(FlowId {
                src_ip: src,
                dst_ip: Ip::new(10, 1, 0, 2),
                src_port: 4_000,
                dst_port: 53,
                proto,
            });
        }
    }
    check(&Response::Flows(list.clone()));
    let one_source: Vec<_> = list.iter().step_by(2).copied().collect();
    check(&Response::Flows(one_source));
    for &proto in &PROTOS {
        let f = |s: u16| FlowId {
            src_ip: Ip(0),
            dst_ip: Ip(u32::MAX),
            src_port: s,
            dst_port: u16::MAX,
            proto,
        };
        check(&Response::Flows((0..300).map(f).collect()));
    }
}

#[test]
fn repeated_flows_round_trip_in_a_flow_list() {
    let f = flow(0x0A00_0001, 40_000, 0);
    let g = flow(0x0A00_0002, 40_000, 0);
    let h = flow(0x0A00_0001, 40_000, 1);
    check(&Response::Flows(vec![f, f]));
    check(&Response::Flows(vec![f, g, f, h, f, g, h, h]));
    check(&Response::Flows(vec![f; 5_000]));
    let mut m = Mix(9);
    let pool = random_entries(&mut m, 40, 10, 2);
    let repeated: Vec<_> = (0..2_000)
        .map(|_| pool[m.below(pool.len() as u64) as usize].1)
        .collect();
    check(&Response::Flows(repeated));
}

/// Bytes of `v` as a varint.
fn varint_len(v: u64) -> usize {
    1 + (63 - (v | 1).leading_zeros() as usize) / 7
}

/// The size of a top-k reply by its documented layout: the tag, `k`, the
/// entry count, the two tables (a count, then 4 B per source and 7 B per
/// destination), and per entry the zigzagged count step, the source index,
/// the 2-byte port and the destination index. The destination index of a
/// one-destination reply counts only if `implied` is false.
fn layout_size(r: &Response, implied: bool) -> usize {
    let Response::TopK { k, entries } = r else {
        panic!("not a top-k reply: {r:?}");
    };
    let mut size = 1 + varint_len(u64::from(*k)) + varint_len(entries.len() as u64);
    if entries.is_empty() {
        return size;
    }
    let (mut srcs, mut dsts) = (HashMap::new(), HashMap::new());
    let mut indices = Vec::new();
    for (_, f) in entries {
        let n = srcs.len();
        let s = *srcs.entry(f.src_ip).or_insert(n);
        let n = dsts.len();
        let d = *dsts.entry((f.dst_ip, f.dst_port, f.proto)).or_insert(n);
        indices.push((s as u64, d as u64));
    }
    size += varint_len(srcs.len() as u64) + 4 * srcs.len();
    size += varint_len(dsts.len() as u64) + 7 * dsts.len();
    let mut prev = 0u64;
    for ((bytes, _), (s, d)) in entries.iter().zip(indices) {
        let step = bytes.wrapping_sub(prev) as i64;
        prev = *bytes;
        size += varint_len(((step << 1) ^ (step >> 63)) as u64);
        size += varint_len(s) + 2;
        if !implied || dsts.len() > 1 {
            size += varint_len(d);
        }
    }
    size
}

/// Exact sizes, one top-k reply of each shape: {one, many} sources ×
/// {one, many} destinations, 10 000 entries each. An implied destination
/// index is one byte per entry less than writing it. A flow-list reply of
/// the same flows is a count and 13-byte flow ids whatever its shape.
#[test]
fn reply_sizes_follow_the_layout() {
    // Entry `i` of a shape: 1 000 000 − i bytes (a one-byte step after
    // the first), source `i % sources`, destination `i % dests`, port `i`.
    let shape = |sources: u32, dests: u32| -> Vec<(u64, FlowId)> {
        (0..10_000u32)
            .map(|i| {
                let f = flow(0x0A00_0000 + i % sources, i as u16, i % dests);
                (1_000_000 - u64::from(i), f)
            })
            .collect()
    };
    let mut sizes = Vec::new();
    for (sources, dests) in [(1, 1), (127, 1), (1, 40), (127, 40)] {
        let entries = shape(sources, dests);
        let r = top_k(10_000, entries.clone());
        let len = to_bytes(&r).len();
        let implied = if dests == 1 { 10_000 } else { 0 };
        assert_eq!(len, layout_size(&r, true), "{sources} × {dests}");
        assert_eq!(len + implied, layout_size(&r, false), "{sources} × {dests}");
        sizes.push(len);
        assert_eq!(to_bytes(&flows(entries)).len(), 1 + 2 + 13 * 10_000);
    }
    // A leaf's top-k reply (127 sources, one destination): tag 1, k 2,
    // count 2, sources 1 + 4·127, destination 1 + 7, count steps 3 + 9 999,
    // then a source index and a port per entry, 3·10 000. Writing the
    // destination index too took 50 524 bytes.
    assert_eq!(sizes[1], 1 + 2 + 2 + 1 + 508 + 1 + 7 + 3 + 9_999 + 30_000);
    assert_eq!(sizes, [40_020, 40_524, 50_293, 50_797]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The families mixed at random: round trips bare, in a message and in
    /// a frame; one cut is an error; one bit flip does not panic.
    #[test]
    fn arbitrary_top_k_replies_round_trip(
        seed in any::<u64>(),
        n in 0usize..400,
        sources in 1u32..300,
        dests in 1u32..12,
        order in 0u8..3,
        cut_sel in any::<usize>(),
        flip_sel in any::<usize>(),
    ) {
        let mut m = Mix(seed);
        let mut entries = random_entries(&mut m, n, sources, dests);
        for e in entries.iter_mut() {
            match m.below(4) {
                0 => e.0 = EXTREMES[m.below(6) as usize],
                1 => e.0 = 1_000,
                _ => {}
            }
        }
        match order {
            0 => entries = sorted(entries),
            1 => entries.reverse(),
            _ => {}
        }
        let k = [0, n as u32, 10_000, u32::MAX][m.below(4) as usize];
        let r = top_k(k, entries);
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

    /// Flow lists mixed at random, with one source, one destination or
    /// neither: round trips bare, in a message and in a frame; one cut is
    /// an error; one bit flip does not panic.
    #[test]
    fn arbitrary_flow_lists_round_trip(
        seed in any::<u64>(),
        n in 0usize..400,
        sources in 1u32..300,
        dests in 1u32..300,
        shape in 0u8..4,
        cut_sel in any::<usize>(),
        flip_sel in any::<usize>(),
    ) {
        let mut m = Mix(seed);
        let (sources, dests) = match shape {
            0 => (1, dests),
            1 => (sources, 1),
            2 => (1, 1),
            _ => (sources, dests),
        };
        let r = flows(random_entries(&mut m, n, sources, dests));
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
