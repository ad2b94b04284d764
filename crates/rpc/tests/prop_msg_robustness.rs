//! Decoder robustness for the rpc envelope: arbitrary, truncated and
//! bit-flipped bytes fed to the `RequestMsg`/`ReplyMsg`/`AckMsg` decoders
//! (and the `TreeNode` subtree codec they embed) must produce `Ok` or a
//! clean `Err` — never a panic, never an unbounded recursion or
//! allocation, and never a silently wrong accept of a corrupted frame.
//!
//! This is what lets `TreePlane::on_frame` treat any decode failure as a
//! droppable datagram: the codec layer guarantees corruption cannot
//! poison protocol state.

use pathdump_core::{build_tree, Query, Response, TreeNode, MAX_TREE_DEPTH};
use pathdump_rpc::{
    AckMsg, Channel, Coverage, Loopback, ReplyMsg, RequestMsg, RpcConfig, TreePlane, CONTROLLER,
    FRAME_RPC_REQUEST,
};
use pathdump_tib::Tib;
use pathdump_topology::{Nanos, TimeRange};
use pathdump_wire::{from_bytes, to_bytes, Encode, Encoder, Frame, WireError};
use proptest::prelude::*;

/// A request whose subtree is a chain of `depth` nodes, encoded by hand:
/// `TreeNode::encode` itself recurses (`size`), so a hostile peer is the
/// only source of a deep one.
fn chain_request(depth: usize) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_varint(7); // req_id
    Nanos::from_millis(100).encode(&mut e);
    Query::TrafficMatrix {
        range: TimeRange::ANY,
    }
    .encode(&mut e);
    e.put_varint(depth as u64);
    for i in 0..depth as u64 {
        e.put_varint(i); // host i, child of node i-1 (0 = root)
        e.put_varint(i);
    }
    e.into_bytes()
}

/// A CRC-valid request with an over-deep subtree is a counted decode
/// failure at the agent, never a panic: a decoded 20 000-chain would
/// overflow the stack in `TreeNode::size` as soon as the agent forwarded
/// it, and again when it was dropped.
#[test]
fn over_deep_subtree_is_a_counted_decode_failure() {
    assert!(from_bytes::<RequestMsg>(&chain_request(MAX_TREE_DEPTH)).is_ok());
    for depth in [MAX_TREE_DEPTH + 1, 20_000] {
        let payload = chain_request(depth);
        assert!(from_bytes::<RequestMsg>(&payload).is_err(), "depth {depth}");
        let mut channel = Loopback::default();
        channel.send(
            CONTROLLER,
            0,
            Frame::new(FRAME_RPC_REQUEST, payload).to_wire(),
            Nanos::ZERO,
        );
        let mut plane = TreePlane::new(channel, RpcConfig::default(), vec![Tib::new()]);
        plane.run_until_idle();
        assert_eq!(plane.stats().decode_failures, 1, "depth {depth}");
        assert_eq!(plane.channel().frames_sent(), 1, "nothing forwarded");
    }
}

/// A `k` or `threshold` that does not fit its `u32` is a decode error,
/// not the low 32 bits of it: `k = 2³² + 5` used to decode as `k = 5`, and
/// the reply carrying it then merged under the wrong bound.
#[test]
fn oversized_u32_fields_are_rejected_not_truncated() {
    let too_big = (1u64 << 32) + 5;
    let with_first_field = |tag: u8, tail: &dyn Fn(&mut Encoder)| {
        let mut e = Encoder::new();
        e.put_u8(tag);
        e.put_varint(too_big);
        tail(&mut e);
        e.into_bytes()
    };
    let overflow = Some(WireError::VarintOverflow);
    let top_k_reply = with_first_field(5, &|e| e.put_varint(0)); // no entries
    assert_eq!(from_bytes::<Response>(&top_k_reply).err(), overflow);
    let top_k = with_first_field(6, &|e| TimeRange::ANY.encode(e));
    assert_eq!(from_bytes::<Query>(&top_k).err(), overflow);
    let poor_tcp = with_first_field(4, &|_| {});
    assert_eq!(from_bytes::<Query>(&poor_tcp).err(), overflow);
    // The same bytes with a value that fits decode, so it is the range
    // check that rejected them and not their shape.
    let mut fits = top_k_reply.clone();
    fits[5] = 0x0F; // the varint's last byte: 2³² + 5 becomes 0xF000_0005
    let k = 0xF000_0005;
    assert_eq!(
        from_bytes::<Response>(&fits),
        Ok(Response::TopK { k, entries: vec![] })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes never panic any rpc-plane decoder.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<RequestMsg>(&data);
        let _ = from_bytes::<ReplyMsg>(&data);
        let _ = from_bytes::<AckMsg>(&data);
        let _ = from_bytes::<Coverage>(&data);
        let _ = from_bytes::<TreeNode>(&data);
    }

    /// Every proper prefix of a valid request encoding fails cleanly —
    /// the embedded varint-counted subtree cannot read past the input.
    #[test]
    fn truncated_requests_never_accepted(
        n_hosts in 1usize..40,
        fanout_sel in 0usize..3,
        cut_sel in any::<usize>(),
    ) {
        let hosts: Vec<usize> = (0..n_hosts).collect();
        let fanouts: &[usize] = [&[7, 4, 4][..], &[3, 2, 2], &[1]][fanout_sel];
        let subtree = build_tree(&hosts, fanouts).remove(0);
        let req = RequestMsg {
            req_id: 9,
            deadline: Nanos::from_millis(100),
            query: pathdump_core::Query::TopK { k: 5, range: TimeRange::ANY },
            subtree,
        };
        let bytes = to_bytes(&req);
        let cut = cut_sel % bytes.len();
        prop_assert!(from_bytes::<RequestMsg>(&bytes[..cut]).is_err(),
            "a {}-byte prefix of a {}-byte request decoded", cut, bytes.len());
    }

    /// A single bit flip anywhere in a framed request is either caught by
    /// the frame CRC or — if it re-frames to a valid parse — yields the
    /// original frame. A flipped payload can never reach the message
    /// decoder through `Frame::from_wire`.
    #[test]
    fn framed_request_bitflip_always_detected(
        n_hosts in 1usize..24,
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let hosts: Vec<usize> = (0..n_hosts).collect();
        let subtree = build_tree(&hosts, &[3, 2, 2]).remove(0);
        let req = RequestMsg {
            req_id: 1,
            deadline: Nanos::from_millis(50),
            query: pathdump_core::Query::TrafficMatrix { range: TimeRange::ANY },
            subtree,
        };
        let frame = Frame::new(FRAME_RPC_REQUEST, to_bytes(&req));
        let mut wire = frame.to_wire();
        let idx = flip_at % wire.len();
        wire[idx] ^= 1 << flip_bit;
        if let Ok((decoded, _)) = Frame::from_wire(&wire) {
            prop_assert_eq!(decoded, frame, "corrupted frame accepted");
        }
    }

    /// Flipping bits in a raw (unframed) coverage encoding either fails
    /// or still decodes to a *well-formed* coverage: sorted, deduplicated,
    /// disjoint classes. A tampered encoding can never smuggle one host
    /// into two classes past the decoder.
    #[test]
    fn coverage_decode_enforces_normal_form(
        answered in proptest::collection::vec(0u32..64, 0..8),
        missed in proptest::collection::vec(0u32..64, 0..8),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut cov = Coverage {
            answered,
            missed,
            timed_out: vec![],
        };
        cov.normalize();
        // Make the classes disjoint (normalize only dedups within one).
        cov.missed.retain(|h| !cov.answered.contains(h));
        let mut bytes = to_bytes(&cov);
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        if let Ok(back) = from_bytes::<Coverage>(&bytes) {
            let mut renorm = back.clone();
            renorm.normalize();
            prop_assert_eq!(&renorm, &back, "decoder accepted non-normal form");
            let n = back.total();
            let mut all: Vec<u32> = back.answered.iter()
                .chain(&back.missed)
                .chain(&back.timed_out)
                .copied()
                .collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), n, "decoder accepted overlapping classes");
        }
    }
}
