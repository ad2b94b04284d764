//! The fault-injecting channel harness: every degradation path of a real
//! management network, reproducible from a seed.

use crate::channel::{Channel, Delivery, Loopback, NodeId};
use pathdump_core::MgmtNet;
use pathdump_topology::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What to inject, with what probability. All draws come from one seeded
/// RNG in send order, so a fault pattern is a pure function of the seed
/// and the (deterministic) send sequence.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice (the copy lands after an
    /// extra `jitter`-bounded delay).
    pub dup_prob: f64,
    /// Probability one payload bit (CRC-covered region) is flipped.
    pub corrupt_prob: f64,
    /// Uniform extra delay in `[0, jitter]` added per frame — with enough
    /// spread this reorders deliveries between nodes.
    pub jitter: Nanos,
    /// Extra fixed delay for every frame to or from these nodes
    /// (stragglers).
    pub straggle: Vec<(NodeId, Nanos)>,
    /// Nodes that neither receive nor send: every frame touching them is
    /// swallowed.
    pub dead: Vec<NodeId>,
}

impl FaultPlan {
    /// A lossless plan (useful as a base to customize).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            jitter: Nanos::ZERO,
            straggle: Vec::new(),
            dead: Vec::new(),
        }
    }
}

/// Counts of injected faults, for asserting a chaos test was not vacuous.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultLog {
    /// Frames dropped by `drop_prob`.
    pub dropped: u64,
    /// Extra copies enqueued by `dup_prob`.
    pub duplicated: u64,
    /// Frames with a flipped payload bit.
    pub corrupted: u64,
    /// Frames swallowed because an endpoint was dead.
    pub dead_dropped: u64,
    /// Frames that got a nonzero jitter or straggler delay.
    pub delayed: u64,
}

/// A [`Channel`] that perturbs frames per a [`FaultPlan`] before queueing
/// them on a [`Loopback`]'s deterministic timeline.
#[derive(Debug)]
pub struct FaultyChannel {
    plan: FaultPlan,
    rng: SmallRng,
    log: FaultLog,
    /// Counts every frame sent and delivers the ones that survive.
    timeline: Loopback,
}

impl FaultyChannel {
    /// A faulty channel over the given latency model and plan.
    pub fn new(net: MgmtNet, plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultyChannel {
            plan,
            rng,
            log: FaultLog::default(),
            timeline: Loopback::new(net),
        }
    }

    /// Injection counts so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    fn extra_delay(&mut self, from: NodeId, to: NodeId) -> Nanos {
        let mut extra = if self.plan.jitter.0 > 0 {
            Nanos(self.rng.gen_range(0..=self.plan.jitter.0))
        } else {
            Nanos::ZERO
        };
        for &(node, delay) in &self.plan.straggle {
            if node == from || node == to {
                extra += delay;
            }
        }
        extra
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos) {
        self.timeline.count(bytes.len());
        if self.plan.dead.contains(&from) || self.plan.dead.contains(&to) {
            self.log.dead_dropped += 1;
            return;
        }
        if self.plan.drop_prob > 0.0 && self.rng.gen_bool(self.plan.drop_prob) {
            self.log.dropped += 1;
            return;
        }
        let mut payload = bytes;
        if self.plan.corrupt_prob > 0.0
            && payload.len() > 4
            && self.rng.gen_bool(self.plan.corrupt_prob)
        {
            // Flip one bit past the length prefix: the CRC-covered region,
            // so corruption is always *detectable* (the length field is
            // exercised separately by the codec-robustness suite).
            let at = self.rng.gen_range(4..payload.len());
            let bit = self.rng.gen_range(0..8u8);
            payload[at] ^= 1 << bit;
            self.log.corrupted += 1;
        }
        let base = self.timeline.net().transfer(payload.len());
        let extra = self.extra_delay(from, to);
        if extra.0 > 0 {
            self.log.delayed += 1;
        }
        let at = now + base + extra;
        let dup = self.plan.dup_prob > 0.0 && self.rng.gen_bool(self.plan.dup_prob);
        let dup_extra = if dup && self.plan.jitter.0 > 0 {
            Nanos(self.rng.gen_range(0..=self.plan.jitter.0))
        } else {
            Nanos::ZERO
        };
        if dup {
            self.log.duplicated += 1;
            self.timeline.enqueue(Delivery {
                from,
                to,
                at: at + dup_extra,
                bytes: payload.clone(),
            });
        }
        self.timeline.enqueue(Delivery {
            from,
            to,
            at,
            bytes: payload,
        });
    }

    fn next_delivery_at(&self) -> Option<Nanos> {
        self.timeline.next_delivery_at()
    }

    fn recv_due(&mut self, now: Nanos) -> Option<Delivery> {
        self.timeline.recv_due(now)
    }

    fn frames_sent(&self) -> u64 {
        self.timeline.frames_sent()
    }

    fn bytes_sent(&self) -> u64 {
        self.timeline.bytes_sent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> MgmtNet {
        MgmtNet::default()
    }

    #[test]
    fn lossless_plan_behaves_like_loopback() {
        use crate::channel::Loopback;
        let mut faulty = FaultyChannel::new(net(), FaultPlan::none(1));
        let mut clean = Loopback::new(net());
        for i in 0..10u8 {
            faulty.send(0, 1, vec![i; 20], Nanos(i as u64 * 100));
            clean.send(0, 1, vec![i; 20], Nanos(i as u64 * 100));
        }
        loop {
            let a = faulty.recv_due(Nanos(u64::MAX));
            let b = clean.recv_due(Nanos(u64::MAX));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(faulty.log(), FaultLog::default());
    }

    #[test]
    fn dead_peer_swallows_both_directions() {
        let mut plan = FaultPlan::none(2);
        plan.dead = vec![3];
        let mut ch = FaultyChannel::new(net(), plan);
        ch.send(0, 3, vec![1], Nanos(0));
        ch.send(3, 0, vec![2], Nanos(0));
        ch.send(0, 1, vec![3], Nanos(0));
        assert_eq!(ch.log().dead_dropped, 2);
        let d = ch.recv_due(Nanos(u64::MAX)).expect("live frame");
        assert_eq!(d.bytes, vec![3]);
        assert!(ch.recv_due(Nanos(u64::MAX)).is_none());
    }

    #[test]
    fn drop_duplicate_corrupt_are_seeded_and_logged() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::none(seed);
            plan.drop_prob = 0.3;
            plan.dup_prob = 0.3;
            plan.corrupt_prob = 0.3;
            plan.jitter = Nanos(50_000);
            let mut ch = FaultyChannel::new(net(), plan);
            for i in 0..200u64 {
                ch.send(0, 1, vec![0xAB; 64], Nanos(i * 1000));
            }
            let mut deliveries = Vec::new();
            while let Some(d) = ch.recv_due(Nanos(u64::MAX)) {
                deliveries.push(d);
            }
            (ch.log(), deliveries)
        };
        let (log, deliveries) = run(7);
        assert!(log.dropped > 20, "{log:?}");
        assert!(log.duplicated > 20, "{log:?}");
        assert!(log.corrupted > 20, "{log:?}");
        assert_eq!(
            log.delayed,
            200 - log.dropped,
            "every surviving frame draws a nonzero jitter here: {log:?}"
        );
        assert_eq!(
            deliveries.len() as u64,
            200 - log.dropped + log.duplicated,
            "every surviving frame (plus dup copies) is delivered"
        );
        // Determinism: the same seed reproduces the identical timeline.
        let (log2, deliveries2) = run(7);
        assert_eq!(log, log2);
        assert_eq!(deliveries, deliveries2);
        // A different seed gives a different pattern.
        let (log3, _) = run(8);
        assert_ne!(log, log3);
    }

    #[test]
    fn corruption_is_always_crc_detectable() {
        use pathdump_wire::Frame;
        let mut plan = FaultPlan::none(5);
        plan.corrupt_prob = 1.0;
        let mut ch = FaultyChannel::new(net(), plan);
        for _ in 0..50 {
            let wire = Frame::new(7, vec![1, 2, 3, 4, 5, 6, 7, 8]).to_wire();
            ch.send(0, 1, wire, Nanos(0));
        }
        let mut n = 0;
        while let Some(d) = ch.recv_due(Nanos(u64::MAX)) {
            assert!(
                Frame::from_wire(&d.bytes).is_err(),
                "flipped bit must fail the CRC"
            );
            n += 1;
        }
        assert_eq!(n, 50);
    }
}
