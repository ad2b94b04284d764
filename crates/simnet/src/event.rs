//! The discrete-event queue: a binary min-heap keyed on `(time, key)`.
//!
//! Same-time events need a tie-break, and a per-queue insertion counter —
//! the obvious one — makes the schedule a function of *when each push
//! happened to reach the heap*: reorder two independent handlers, batch an
//! injection, restructure the loop, and every later tie can flip. So each
//! event carries a **causal key** instead: root events (harness
//! injections) take keys from a facade-level counter, and every event
//! created while dispatching event `E` derives its key from `E`'s key plus
//! a per-dispatch birth index (see `KeyGen`). Causal keys are a pure
//! function of the simulation's causal history, not of push order, which
//! is what lets `tests/golden.rs` pin results across refactors of the loop
//! — the recorded digests come from a simulator that scheduled the same
//! events in a different order.
//!
//! Key collisions between *distinct same-timestamp* events would leave
//! their order to the heap; keys are 64-bit SplitMix64 outputs, so for
//! the handful of events sharing one timestamp the collision probability
//! is ~2⁻⁶⁴ per pair — negligible even across millions of runs.

use crate::packet::Packet;
use crate::traits::Punt;
use pathdump_topology::{HostId, Nanos, PortNo, SwitchId};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives causal keys for events created by one dispatch (or one facade
/// call): child `i` of the event keyed `parent` gets
/// `mix64(parent ^ mix64(i+1))`.
#[derive(Debug)]
pub(crate) struct KeyGen {
    parent: u64,
    births: u64,
}

impl KeyGen {
    /// A key generator rooted at the event (or facade operation) `parent`.
    pub fn new(parent: u64) -> Self {
        KeyGen { parent, births: 0 }
    }

    /// The next child key.
    pub fn next_key(&mut self) -> u64 {
        self.births += 1;
        mix64(self.parent ^ mix64(self.births))
    }

    /// Consumes a birth index without making a key: a logged drop is a
    /// child of its dispatch too (see `Ctx::log_drop` in `sim.rs`).
    pub fn skip_birth(&mut self) {
        self.births += 1;
    }
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A packet arrives at a switch (finished propagation).
    SwitchRx {
        sw: SwitchId,
        in_port: Option<PortNo>,
        pkt: Packet,
    },
    /// A switch egress finishes serializing its head-of-line packet.
    PortTx { sw: SwitchId, port: PortNo },
    /// A packet arrives at a host NIC.
    HostRx { host: HostId, pkt: Packet },
    /// A host NIC finishes serializing its head-of-line packet.
    HostTx { host: HostId },
    /// A host timer fires.
    Timer { host: HostId, token: u64 },
    /// The controller receives a punted packet.
    CtrlRx { punt: Punt },
}

/// Heap entry; ordered so the earliest (time, key) pops first.
#[derive(Debug)]
pub(crate) struct EventEntry {
    pub at: Nanos,
    pub seq: u64,
    /// Boxed so a sift moves 24 bytes, not a ≈ 150-byte packet: with every
    /// pending timer and packet in one heap the sifts are deep, and moving
    /// whole packets through them costs more than the allocation does
    /// (measured: `simnet_scale` k=8 runs 1.6× faster boxed, fig05 1.6×).
    pub kind: Box<EventKind>,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for EventEntry {}

impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<EventEntry>,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at absolute time `at` under causal key `key`.
    pub fn push_keyed(&mut self, at: Nanos, key: u64, kind: EventKind) {
        self.heap.push(EventEntry {
            at,
            seq: key,
            kind: Box::new(kind),
        });
    }

    /// Pops the earliest event if it is due by `t` (inclusive). An event
    /// stamped exactly `Nanos::MAX` — a saturated timestamp, e.g. an
    /// overflowing timer delay — means "never" and is not due at any `t`.
    pub fn pop_due(&mut self, t: Nanos) -> Option<EventEntry> {
        let head = self.heap.peek_mut()?;
        if head.at > t || head.at == Nanos::MAX {
            return None;
        }
        Some(PeekMut::pop(head))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_keyed(Nanos(30), 1, EventKind::HostTx { host: HostId(3) });
        q.push_keyed(Nanos(10), 2, EventKind::HostTx { host: HostId(1) });
        q.push_keyed(Nanos(20), 3, EventKind::HostTx { host: HostId(2) });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_due(Nanos(30)))
            .map(|e| e.at.0)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn due_is_inclusive_and_max_is_never() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        assert!(q.pop_due(Nanos::MAX).is_none());
        q.push_keyed(Nanos(42), 0, EventKind::HostTx { host: HostId(0) });
        q.push_keyed(Nanos::MAX, 1, EventKind::HostTx { host: HostId(1) });
        assert_eq!(q.len(), 2);
        assert!(q.pop_due(Nanos(41)).is_none());
        assert_eq!(q.pop_due(Nanos(42)).map(|e| e.at), Some(Nanos(42)));
        assert!(q.pop_due(Nanos::MAX).is_none(), "MAX is never due");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keyed_ties_break_by_key() {
        let mut q = EventQueue::new();
        q.push_keyed(Nanos(5), 9, EventKind::HostTx { host: HostId(9) });
        q.push_keyed(Nanos(5), 3, EventKind::HostTx { host: HostId(3) });
        q.push_keyed(Nanos(5), 7, EventKind::HostTx { host: HostId(7) });
        let hosts: Vec<u32> = std::iter::from_fn(|| q.pop_due(Nanos(5)))
            .map(|e| match *e.kind {
                EventKind::HostTx { host } => host.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hosts, vec![3, 7, 9]);
    }

    #[test]
    fn keygen_is_deterministic_and_spread() {
        let mut a = KeyGen::new(42);
        let mut b = KeyGen::new(42);
        let ka: Vec<u64> = (0..4).map(|_| a.next_key()).collect();
        let kb: Vec<u64> = (0..4).map(|_| b.next_key()).collect();
        assert_eq!(ka, kb, "same parent + birth order => same keys");
        let distinct: std::collections::HashSet<u64> = ka.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "children must not collide");
        let mut c = KeyGen::new(43);
        assert_ne!(a.next_key(), c.next_key());
    }
}
