//! The two execution drivers: the **windowed rounds** of the sharded
//! engine and the tournament-indexed **sequential** reference. Both run on
//! the calling thread over the same lanes — `lanes[s]` drives shard `s`
//! (switch shards in shard order, the edge shard last) — and the same
//! handlers, so they differ only in the order events of *different* shards
//! interleave, which no handler can observe (see `sim.rs` module docs).
//!
//! # The windowed rounds
//!
//! Each round of [`drive_windowed_rounds`]:
//!
//! 1. **Snapshot** — record every lane's earliest pending event time; if
//!    the global minimum exceeds the run horizon, the drive ends.
//! 2. **Process** — each lane in turn pops and dispatches its events
//!    strictly below its horizon (`ShardPlan::horizon` over the snapshot).
//!    Derived events are pushed straight into the destination lane: by the
//!    lookahead argument they land at or beyond that lane's horizon, so it
//!    cannot see them before the next round's snapshot.
//!
//! A lane therefore drains a whole window from its own heap before the
//! next lane runs, where the sequential driver re-seats the tournament
//! after every event.
//!
//! # The sequential driver
//!
//! [`seq_drive`] pops the globally earliest `(time, key)` event across all
//! lanes. The per-pop linear scan over shard queues is replaced by a
//! [`TournamentTree`] (a winner tree over the per-lane queue heads):
//! re-seating a lane after a pop or a cross-lane push costs `O(log L)`
//! comparisons instead of `O(L)` peeks per event.

use crate::config::SimConfig;
use crate::event::{EventEntry, EventQueue};
use crate::shard::{Outgoing, ShardPlan};
use crate::traits::TagPolicy;
use pathdump_topology::{Nanos, RouteTables, Topology};

/// Read-only state shared by every shard and both drivers.
pub(crate) struct Net<'a> {
    pub cfg: &'a SimConfig,
    pub topo: &'a Topology,
    pub routes: &'a RouteTables,
    pub plan: &'a ShardPlan,
    pub tag: &'a dyn TagPolicy,
}

/// One schedulable shard: an event queue plus the dispatch half that
/// mutates the shard's state. Implemented by the switch-shard and edge
/// contexts in `sim.rs`; the drivers only see this surface.
pub(crate) trait LaneCtx {
    /// The lane's event queue.
    fn queue_mut(&mut self) -> &mut EventQueue;
    /// Dispatches one event, appending derived cross-shard events to `out`.
    fn dispatch_event(&mut self, net: &Net, ev: EventEntry, out: &mut Vec<Outgoing>);
}

/// The sharded engine (see module docs): rounds of per-lane windows bounded
/// by the lookahead horizons, until no event at or before `t` is pending.
pub(crate) fn drive_windowed_rounds(net: &Net, lanes: &mut [&mut dyn LaneCtx], t: Nanos) {
    let mut t_next: Vec<u64> = vec![u64::MAX; lanes.len()];
    let mut out: Vec<Outgoing> = Vec::new();
    loop {
        for (tn, l) in t_next.iter_mut().zip(lanes.iter_mut()) {
            *tn = l.queue_mut().peek_time().map_or(u64::MAX, |n| n.0);
        }
        let gmin = t_next.iter().copied().min().unwrap_or(u64::MAX);
        if gmin == u64::MAX || gmin > t.0 {
            break;
        }
        for i in 0..lanes.len() {
            let h = net.plan.horizon(i, &t_next);
            while let Some((at, _)) = lanes[i].queue_mut().peek_time_key() {
                if at.0 >= h || at > t {
                    break;
                }
                let ev = lanes[i].queue_mut().pop().expect("peeked event must pop");
                lanes[i].dispatch_event(net, ev, &mut out);
                for m in out.drain(..) {
                    lanes[m.shard].queue_mut().push_keyed(m.at, m.key, m.kind);
                }
            }
        }
    }
}

/// The sequential reference engine: pops the globally earliest
/// `(time, key)` event across all lanes, ordered by a [`TournamentTree`]
/// over the per-lane queue heads.
///
/// Events stamped exactly `Nanos::MAX` are the saturated "never" sentinel
/// and do not fire (the windowed rounds cannot distinguish them from
/// empty queues, so neither engine runs them).
pub(crate) fn seq_drive(net: &Net, lanes: &mut [&mut dyn LaneCtx], t: Nanos) {
    let mut tree = TournamentTree::new(lanes.len());
    for (i, l) in lanes.iter_mut().enumerate() {
        tree.set(i, l.queue_mut().peek_time_key());
    }
    let mut out: Vec<Outgoing> = Vec::new();
    while let Some((i, (at, _))) = tree.min() {
        if at > t || at == Nanos::MAX {
            break;
        }
        let ev = lanes[i].queue_mut().pop().expect("tree head must pop");
        lanes[i].dispatch_event(net, ev, &mut out);
        for m in out.drain(..) {
            let dest = m.shard;
            lanes[dest].queue_mut().push_keyed(m.at, m.key, m.kind);
            if dest != i {
                tree.set(dest, lanes[dest].queue_mut().peek_time_key());
            }
        }
        // The popped lane re-seats last: it covers both the pop and any
        // same-lane events the dispatch pushed.
        tree.set(i, lanes[i].queue_mut().peek_time_key());
    }
}

/// A winner (tournament) tree over per-lane `(time, key)` queue heads:
/// `min()` is O(1), re-seating a lane after its head changes is
/// O(log lanes). Ties — impossible between real events short of a 64-bit
/// causal-key collision — break on the lane index, matching the
/// first-wins linear scan this structure replaced.
pub(crate) struct TournamentTree {
    /// Leaf count rounded up to a power of two.
    width: usize,
    /// Winning lane per node, 1-based heap layout (leaves at `width + i`).
    node: Vec<u32>,
    /// Current head per lane; the extra last slot is the permanent
    /// "empty leaf" sentinel.
    heads: Vec<Option<(Nanos, u64)>>,
}

impl TournamentTree {
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "tournament over zero lanes");
        let width = lanes.next_power_of_two();
        let sentinel = lanes as u32;
        let mut node = vec![sentinel; 2 * width];
        for i in 0..lanes {
            node[width + i] = i as u32;
        }
        let mut tree = TournamentTree {
            width,
            node,
            heads: vec![None; lanes + 1],
        };
        for x in (1..width).rev() {
            tree.node[x] = tree.winner(tree.node[2 * x], tree.node[2 * x + 1]);
        }
        tree
    }

    /// Total order on lanes by current head: real heads first (by time,
    /// then key), empty lanes last, lane index breaking exact ties.
    fn rank(&self, lane: u32) -> (bool, Nanos, u64, u32) {
        match self.heads[lane as usize] {
            Some((at, key)) => (false, at, key, lane),
            None => (true, Nanos(u64::MAX), u64::MAX, lane),
        }
    }

    fn winner(&self, a: u32, b: u32) -> u32 {
        if self.rank(a) <= self.rank(b) {
            a
        } else {
            b
        }
    }

    /// Re-seats `lane` after its queue head changed.
    pub fn set(&mut self, lane: usize, head: Option<(Nanos, u64)>) {
        self.heads[lane] = head;
        let mut x = (self.width + lane) / 2;
        while x >= 1 {
            self.node[x] = self.winner(self.node[2 * x], self.node[2 * x + 1]);
            if x == 1 {
                break;
            }
            x /= 2;
        }
    }

    /// The lane holding the globally earliest `(time, key)` head, if any
    /// lane is non-empty.
    pub fn min(&self) -> Option<(usize, (Nanos, u64))> {
        let w = self.node[1] as usize;
        self.heads[w].map(|h| (w, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Differential check against a linear scan over random head churn.
    #[test]
    fn tournament_matches_linear_scan() {
        for lanes in [1usize, 2, 3, 5, 8, 11] {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ lanes as u64);
            let mut tree = TournamentTree::new(lanes);
            let mut heads: Vec<Option<(Nanos, u64)>> = vec![None; lanes];
            for step in 0..500 {
                let lane = rng.gen_range(0..lanes);
                let head = if rng.gen::<f64>() < 0.25 {
                    None
                } else {
                    Some((Nanos(rng.gen_range(0..50)), rng.gen::<u64>() % 16))
                };
                heads[lane] = head;
                tree.set(lane, head);
                let expect = heads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.map(|(at, k)| (at, k, i)))
                    .min();
                let got = tree.min().map(|(i, (at, k))| (at, k, i));
                assert_eq!(got, expect, "lanes={lanes} step={step}");
            }
        }
    }

    #[test]
    fn tournament_tie_breaks_on_lane_index() {
        let mut tree = TournamentTree::new(4);
        tree.set(2, Some((Nanos(7), 9)));
        tree.set(1, Some((Nanos(7), 9)));
        assert_eq!(tree.min(), Some((1, (Nanos(7), 9))));
        tree.set(1, None);
        assert_eq!(tree.min(), Some((2, (Nanos(7), 9))));
        tree.set(2, None);
        assert_eq!(tree.min(), None);
    }

    /// A saturated `Nanos::MAX` head is a real (orderable) entry — the
    /// drivers, not the tree, decide it never fires.
    #[test]
    fn tournament_orders_saturated_heads_before_empty() {
        let mut tree = TournamentTree::new(2);
        tree.set(0, Some((Nanos::MAX, 3)));
        assert_eq!(tree.min(), Some((0, (Nanos::MAX, 3))));
    }
}
