//! Pod sharding: the partition of the fabric into conservatively
//! synchronized event-loop shards, and the lookahead horizons the windowed
//! rounds in [`crate::driver`] process up to.
//!
//! # Partition
//!
//! Every switch with a `pod` coordinate joins its pod's shard; switches
//! without one (fat-tree cores) form one extra shard. Hosts, NICs, timers,
//! the [`crate::traits::World`] and the controller live on the **edge
//! shard** — the world is a single `&mut` object, and routing every
//! host/controller callback through one shard is what keeps its
//! observation order identical to the sequential engine's.
//!
//! # Lookahead
//!
//! Cross-shard hops each carry a minimum latency: fabric propagation
//! (pod ↔ core, ToR → host delivery), host-NIC propagation (host → ToR),
//! punt latency (switch → controller), and packet-out latency
//! (controller → switch). The per-pair minima form the lookahead table; a
//! shard whose earliest pending event is at `t` cannot make anything
//! appear at shard `s` before `t + min_lat[·][s]`, so each round every
//! shard may safely process its events up to that horizon. Pods exchange
//! no direct messages (fat-tree pods only meet at cores), so two pods can
//! run up to two fabric hops apart.
//!
//! The round boundaries are also the granularity at which the facade's
//! merged view (`now()`, `pending_events()`, stats, drop log) is defined:
//! inside `run_until` the shards are mid-window and unobservable; at every
//! `run_until` return the engines have converged on the identical state.

use crate::config::SimConfig;
use crate::event::EventKind;
use pathdump_topology::{Nanos, Peer, Topology};

/// A cross-shard event in flight.
pub(crate) struct Outgoing {
    /// Destination shard (switch shard id, or [`ShardPlan::edge_shard`]).
    pub shard: usize,
    pub at: Nanos,
    pub key: u64,
    pub kind: EventKind,
}

/// The static sharding decision for one topology + configuration.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Number of switch shards (pods, plus one core shard when coreless
    /// switches exist). The edge shard is extra and always last.
    pub switch_shards: usize,
    /// Shard of each switch, indexed by `SwitchId::index()`.
    pub shard_of_switch: Vec<usize>,
    /// Rank of each switch within its shard (ascending global id).
    pub local_of_switch: Vec<usize>,
    /// `reach[from][to]`: min-plus closure of the direct-channel latency
    /// matrix — the minimum latency of any ≥1-hop causal chain from one
    /// shard to another (including back to itself, via e.g. pod → core →
    /// pod). The closure, not the direct latency, bounds horizons: an
    /// *empty* shard can still be woken by a neighbor and relay an event
    /// onward, so the safe bound on what can appear at shard `s` is
    /// `min over s' of (earliest pending event of s' + reach[s'][s])`.
    /// Indexed by shard id with the edge shard last.
    pub reach: Vec<Vec<u64>>,
    /// Smallest finite entry of `reach` (the global lookahead bound).
    pub lookahead: Nanos,
}

impl ShardPlan {
    /// Builds the plan for a topology under the given latency config.
    pub fn build(topo: &Topology, cfg: &SimConfig) -> Self {
        let n = topo.num_switches();
        // Pods indexed by their value; cores (pod = None) share one shard.
        let pods: Vec<u16> = topo
            .switches
            .iter()
            .filter_map(|s| s.pod)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let has_core = topo.switches.iter().any(|s| s.pod.is_none());
        let pod_shard = |pod: Option<u16>| -> usize {
            match pod {
                Some(p) => pods.binary_search(&p).expect("pod seen above"),
                None => pods.len(),
            }
        };
        let switch_shards = (pods.len() + usize::from(has_core)).max(1);
        let edge = switch_shards;

        let mut shard_of_switch = vec![0usize; n];
        let mut local_of_switch = vec![0usize; n];
        let mut counts = vec![0usize; switch_shards];
        for (i, sw) in topo.switches.iter().enumerate() {
            let s = pod_shard(sw.pod);
            shard_of_switch[i] = s;
            local_of_switch[i] = counts[s];
            counts[s] += 1;
        }

        let l_fab = cfg.fabric_link.prop_delay.0;
        let l_host = cfg.host_link.prop_delay.0;
        let l_punt = cfg.punt_latency.0;
        let l_po = cfg.packet_out_latency.0;

        let total = switch_shards + 1;
        let mut min_lat = vec![vec![u64::MAX; total]; total];
        let relax = |m: &mut Vec<Vec<u64>>, from: usize, to: usize, l: u64| {
            if l < m[from][to] {
                m[from][to] = l;
            }
        };
        for (i, sw) in topo.switches.iter().enumerate() {
            let s = shard_of_switch[i];
            // Punts reach the controller from any switch.
            relax(&mut min_lat, s, edge, l_punt);
            // Packet-outs reach any switch from the controller.
            relax(&mut min_lat, edge, s, l_po);
            for peer in &sw.ports {
                match *peer {
                    Peer::Switch { sw: nb, .. } => {
                        let d = shard_of_switch[nb.index()];
                        if d != s {
                            relax(&mut min_lat, s, d, l_fab);
                        }
                    }
                    Peer::Host(_) => {
                        // Delivery to a host NIC propagates on the fabric
                        // link class; the host's uplink uses the NIC class.
                        relax(&mut min_lat, s, edge, l_fab);
                        relax(&mut min_lat, edge, s, l_host);
                    }
                    Peer::Unconnected => {}
                }
            }
        }

        // Min-plus closure over ≥1-hop paths (Floyd–Warshall; saturating,
        // `u64::MAX` = unreachable). `reach[s][s]` is the cheapest round
        // trip through other shards, which is finite and matters: a shard
        // can cause events at *itself* via the core.
        let mut reach = min_lat.clone();
        for k in 0..total {
            for i in 0..total {
                if reach[i][k] == u64::MAX {
                    continue;
                }
                for j in 0..total {
                    let via = reach[i][k].saturating_add(reach[k][j]);
                    if via < reach[i][j] {
                        reach[i][j] = via;
                    }
                }
            }
        }

        let lookahead = Nanos(
            reach
                .iter()
                .flatten()
                .copied()
                .filter(|&l| l != u64::MAX)
                .min()
                .unwrap_or(0),
        );

        ShardPlan {
            switch_shards,
            shard_of_switch,
            local_of_switch,
            reach,
            lookahead,
        }
    }

    /// Shard id of the host/controller edge shard (always the last).
    pub fn edge_shard(&self) -> usize {
        self.switch_shards
    }

    /// Total shard count including the edge shard.
    pub fn total_shards(&self) -> usize {
        self.switch_shards + 1
    }

    /// Destination shard of an event.
    pub fn dest_shard(&self, kind: &EventKind) -> usize {
        match kind {
            EventKind::SwitchRx { sw, .. } | EventKind::PortTx { sw, .. } => {
                self.shard_of_switch[sw.index()]
            }
            EventKind::HostRx { .. }
            | EventKind::HostTx { .. }
            | EventKind::Timer { .. }
            | EventKind::CtrlRx { .. } => self.edge_shard(),
        }
    }

    /// True when the windowed rounds can run this plan: at least two
    /// switch shards and strictly positive lookahead on every channel.
    pub fn shardable(&self) -> bool {
        self.switch_shards >= 2 && self.lookahead > Nanos::ZERO
    }

    /// The horizon (exclusive) up to which shard `s` may process events,
    /// given the round's per-shard earliest-pending-event snapshot. Every
    /// shard — including `s` itself, whose events can round-trip through
    /// the core — contributes `its earliest pending time + the cheapest
    /// causal chain from it to s`; nothing can appear at `s` below that.
    pub fn horizon(&self, s: usize, t_next: &[u64]) -> u64 {
        let mut h = u64::MAX;
        for (other, &tn) in t_next.iter().enumerate() {
            let l = self.reach[other][s];
            if l == u64::MAX {
                continue;
            }
            h = h.min(tn.saturating_add(l));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FatTree, FatTreeParams, Tier, UpDownRouting};

    fn plan_k4() -> (FatTree, ShardPlan) {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let plan = ShardPlan::build(ft.topology(), &SimConfig::for_tests());
        (ft, plan)
    }

    #[test]
    fn partition_follows_pods_and_cores() {
        let (ft, plan) = plan_k4();
        assert_eq!(plan.switch_shards, 5, "4 pods + 1 core shard");
        assert_eq!(plan.edge_shard(), 5);
        for p in 0..4 {
            for i in 0..2 {
                assert_eq!(plan.shard_of_switch[ft.tor(p, i).index()], p);
                assert_eq!(plan.shard_of_switch[ft.agg(p, i).index()], p);
            }
        }
        for j in 0..4 {
            assert_eq!(plan.shard_of_switch[ft.core(j).index()], 4);
            assert_eq!(ft.topology().switch(ft.core(j)).tier, Tier::Core);
        }
        // Local ranks are dense and ascending within each shard.
        for s in 0..plan.switch_shards {
            let mut ranks: Vec<usize> = (0..ft.topology().num_switches())
                .filter(|&i| plan.shard_of_switch[i] == s)
                .map(|i| plan.local_of_switch[i])
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..ranks.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lookahead_and_reach() {
        let (_, plan) = plan_k4();
        let cfg = SimConfig::for_tests();
        assert!(plan.shardable());
        // The binding lookahead is the host NIC propagation delay.
        assert_eq!(plan.lookahead, cfg.host_link.prop_delay);
        let fab = cfg.fabric_link.prop_delay.0;
        let host = cfg.host_link.prop_delay.0;
        // Pod -> core is one direct fabric hop.
        assert_eq!(plan.reach[0][4], fab);
        // Fat-tree pods exchange no direct links; the cheapest pod -> pod
        // chain is ToR -> host delivery -> NIC -> ToR (beating the two
        // fabric hops through the core), and the same loop is the cheapest
        // way for a pod to cause events at itself again.
        assert_eq!(plan.reach[0][1], fab + host);
        assert_eq!(plan.reach[0][0], fab + host);
        // Pod -> edge: ToR delivery beats the punt path.
        assert_eq!(plan.reach[0][plan.edge_shard()], fab);
        // Core -> edge: no hosts on cores; cheapest is core -> pod -> edge.
        assert_eq!(plan.reach[4][plan.edge_shard()], 2 * fab);
    }

    #[test]
    fn zero_latency_disables_sharding() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut cfg = SimConfig::for_tests();
        cfg.host_link.prop_delay = Nanos::ZERO;
        let plan = ShardPlan::build(ft.topology(), &cfg);
        assert!(!plan.shardable());
    }

    #[test]
    fn horizon_uses_transitive_reach() {
        let (_, plan) = plan_k4();
        let cfg = SimConfig::for_tests();
        let fab = cfg.fabric_link.prop_delay.0;
        let host = cfg.host_link.prop_delay.0;
        let total = plan.total_shards();
        // Only pod 0 has work at t=1000; everyone else is empty. Pod 1's
        // horizon must still be bounded (pod 0 can wake the edge or the
        // core, which can wake pod 1) — the bug class the closure fixes:
        // direct-latency horizons would be unbounded here.
        let mut t_next = vec![u64::MAX; total];
        t_next[0] = 1000;
        assert_eq!(plan.horizon(1, &t_next), 1000 + fab + host);
        assert_eq!(plan.horizon(4, &t_next), 1000 + fab);
        // Pod 0 itself is bounded by its own cheapest relay loop.
        assert_eq!(plan.horizon(0, &t_next), 1000 + fab + host);
    }
}
