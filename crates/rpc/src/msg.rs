//! The rpc envelope: source-routed requests and merged replies.
//!
//! Both messages ride the `pathdump_wire` frame format (length prefix +
//! type tag + CRC-32 trailer); the frame `typ` distinguishes them on the
//! wire, so a payload never needs a redundant discriminant.

use crate::coverage::Coverage;
use pathdump_core::{Query, Response, TreeNode};
use pathdump_topology::Nanos;
use pathdump_wire::{Decode, Decoder, Encode, Encoder, WireResult};

/// Frame type tag for a query request traveling down the tree.
pub const FRAME_RPC_REQUEST: u16 = 0x10;
/// Frame type tag for a merged reply traveling up the tree.
pub const FRAME_RPC_REPLY: u16 = 0x11;
/// Frame type tag for an accept-ack (request received, work started).
pub const FRAME_RPC_ACK: u16 = 0x12;

/// An accept-ack: the child has the request and is aggregating. The parent
/// parks its retry timer for this child — from here on, only the
/// deadline limits the wait. Without this, a parent's RTO cannot tell a
/// dead child from a live one whose own subtree legitimately needs longer
/// than a few RTOs (e.g. it is burning retries on a dead grandchild).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AckMsg {
    /// Echoed query id.
    pub req_id: u64,
}

impl Encode for AckMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.req_id);
    }
}

impl Decode for AckMsg {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(AckMsg {
            req_id: dec.get_varint()?,
        })
    }
}

/// A query request: the recipient executes `query` locally, fans out to
/// the children of `subtree` (whose root is the recipient itself — source
/// routing, no membership state at agents), and replies to the sender by
/// `deadline` with whatever it has merged.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestMsg {
    /// Globally unique query id (shared by every hop of one query).
    pub req_id: u64,
    /// Absolute virtual-time deadline for the *recipient's* reply.
    pub deadline: Nanos,
    /// The query.
    pub query: Query,
    /// The recipient's subtree of the aggregation tree.
    pub subtree: TreeNode,
}

/// A merged reply: the sender's local answer folded with every child reply
/// it collected, plus exact per-host coverage for its subtree.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplyMsg {
    /// Echoed query id.
    pub req_id: u64,
    /// The (possibly partial) merged response.
    pub response: Response,
    /// Per-host accounting for the sender's subtree.
    pub coverage: Coverage,
}

impl Encode for RequestMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.req_id);
        self.deadline.encode(enc);
        self.query.encode(enc);
        self.subtree.encode(enc);
    }
}

impl Decode for RequestMsg {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(RequestMsg {
            req_id: dec.get_varint()?,
            deadline: Nanos::decode(dec)?,
            query: Query::decode(dec)?,
            subtree: TreeNode::decode(dec)?,
        })
    }
}

impl Encode for ReplyMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.req_id);
        self.response.encode(enc);
        self.coverage.encode(enc);
    }
}

impl Decode for ReplyMsg {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(ReplyMsg {
            req_id: dec.get_varint()?,
            response: Response::decode(dec)?,
            coverage: Coverage::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_core::build_tree;
    use pathdump_topology::TimeRange;
    use pathdump_wire::{from_bytes, to_bytes, Frame};

    #[test]
    fn request_roundtrips_through_frame() {
        let hosts: Vec<usize> = (0..13).collect();
        let subtree = build_tree(&hosts, &[1, 3, 3]).remove(0);
        let req = RequestMsg {
            req_id: 42,
            deadline: Nanos::from_millis(250),
            query: Query::TopK {
                k: 10,
                range: TimeRange::ANY,
            },
            subtree,
        };
        let frame = Frame::new(FRAME_RPC_REQUEST, to_bytes(&req));
        let wire = frame.to_wire();
        let (back, used) = Frame::from_wire(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back.typ, FRAME_RPC_REQUEST);
        let msg: RequestMsg = from_bytes(&back.payload).unwrap();
        assert_eq!(msg, req);
    }

    #[test]
    fn reply_roundtrips() {
        let reply = ReplyMsg {
            req_id: 7,
            response: Response::Count {
                bytes: 100,
                pkts: 3,
            },
            coverage: Coverage {
                answered: vec![0, 2],
                missed: vec![1],
                timed_out: vec![],
            },
        };
        let back: ReplyMsg = from_bytes(&to_bytes(&reply)).unwrap();
        assert_eq!(back, reply);
    }
}
