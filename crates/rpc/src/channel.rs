//! The pluggable datagram fabric and its lossless reference backend.

use pathdump_core::MgmtNet;
use pathdump_topology::Nanos;
use std::collections::BTreeMap;

/// A plane endpoint: host index, or [`CONTROLLER`].
pub type NodeId = u32;

/// The controller's address (never a valid host index).
pub const CONTROLLER: NodeId = u32::MAX;

/// One frame arriving at a node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Virtual delivery time.
    pub at: Nanos,
    /// Raw frame bytes (length-delimited wire format, CRC included).
    pub bytes: Vec<u8>,
}

/// An unreliable, unordered datagram fabric (see the crate docs for the
/// full contract). Implementations must be deterministic: the same send
/// sequence produces the same delivery sequence.
pub trait Channel {
    /// Queues `bytes` from `from` to `to` at virtual time `now`. The
    /// channel may drop, duplicate, delay or corrupt the frame.
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos);

    /// Earliest pending delivery time, if any — the plane's clock source.
    fn next_delivery_at(&self) -> Option<Nanos>;

    /// Pops the next delivery due at or before `now`, in deterministic
    /// `(time, enqueue-sequence)` order.
    fn recv_due(&mut self, now: Nanos) -> Option<Delivery>;

    /// Total frames handed to `send` so far.
    fn frames_sent(&self) -> u64;

    /// Total frame bytes handed to `send` so far.
    fn bytes_sent(&self) -> u64;
}

/// The deterministic in-memory reference backend: every frame is delivered
/// exactly once, uncorrupted, after the [`MgmtNet`] latency + serialization
/// delay (the paper's dedicated 1 GbE management channel). This is the
/// lossless channel on which the tree-equivalence differential suite pins
/// every answer to the flat fold of the queried hosts' local answers.
#[derive(Debug)]
pub struct Loopback {
    net: MgmtNet,
    queue: BTreeMap<(Nanos, u64), Delivery>,
    seq: u64,
    frames: u64,
    bytes: u64,
}

impl Loopback {
    /// A loopback over the given latency/bandwidth model.
    pub fn new(net: MgmtNet) -> Self {
        Loopback {
            net,
            queue: BTreeMap::new(),
            seq: 0,
            frames: 0,
            bytes: 0,
        }
    }

    /// The latency model in use.
    pub fn net(&self) -> MgmtNet {
        self.net
    }

    /// Counts one frame of `len` bytes handed to `send`.
    pub(crate) fn count(&mut self, len: usize) {
        self.frames += 1;
        self.bytes += len as u64;
    }

    /// Queues `d` for delivery at `d.at`, after every frame already queued
    /// for that instant.
    pub(crate) fn enqueue(&mut self, d: Delivery) {
        self.queue.insert((d.at, self.seq), d);
        self.seq += 1;
    }
}

impl Default for Loopback {
    fn default() -> Self {
        Loopback::new(MgmtNet::default())
    }
}

impl Channel for Loopback {
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos) {
        self.count(bytes.len());
        let at = now + self.net.transfer(bytes.len());
        self.enqueue(Delivery {
            from,
            to,
            at,
            bytes,
        });
    }

    fn next_delivery_at(&self) -> Option<Nanos> {
        self.queue.keys().next().map(|(t, _)| *t)
    }

    fn recv_due(&mut self, now: Nanos) -> Option<Delivery> {
        let key = *self.queue.keys().next()?;
        if key.0 > now {
            return None;
        }
        self.queue.remove(&key)
    }

    fn frames_sent(&self) -> u64 {
        self.frames
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_in_time_order_exactly_once() {
        let mut ch = Loopback::new(MgmtNet {
            one_way_latency: Nanos(1000),
            bandwidth_bps: 1_000_000_000,
        });
        // 125 bytes at 1 Gb/s = 1 us wire + 1 us latency = 2 us.
        ch.send(0, 1, vec![0; 125], Nanos(0));
        ch.send(2, 1, vec![0; 1], Nanos(0));
        assert_eq!(ch.frames_sent(), 2);
        assert_eq!(ch.bytes_sent(), 126);
        // The 1-byte frame lands first despite being sent second.
        assert_eq!(ch.next_delivery_at(), Some(Nanos(1008)));
        assert!(ch.recv_due(Nanos(1000)).is_none(), "not due yet");
        let d = ch.recv_due(Nanos(3000)).expect("due");
        assert_eq!((d.from, d.to, d.at), (2, 1, Nanos(1008)));
        let d = ch.recv_due(Nanos(3000)).expect("due");
        assert_eq!((d.from, d.to, d.at), (0, 1, Nanos(2000)));
        assert!(ch.recv_due(Nanos(u64::MAX)).is_none());
        assert_eq!(ch.next_delivery_at(), None);
    }

    #[test]
    fn same_instant_deliveries_keep_send_order() {
        let mut ch = Loopback::default();
        for i in 0..5u8 {
            ch.send(i as NodeId, 9, vec![i], Nanos(0));
        }
        let mut seen = Vec::new();
        while let Some(d) = ch.recv_due(Nanos(u64::MAX)) {
            seen.push(d.bytes[0]);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
