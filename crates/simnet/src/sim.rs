//! The discrete-event simulator: switches with match-action forwarding,
//! output-queued ports, fault injection, tag policies, and the controller
//! slow path.
//!
//! # Engine architecture: pod sharding with conservative lookahead
//!
//! [`Simulator`] is a facade over two interchangeable event-loop engines
//! selected by [`SimConfig::engine`], both running on the calling thread:
//!
//! * **Sequential** — pops the globally earliest event across all shard
//!   queues (the reference engine), ordered by a tournament tree over the
//!   per-shard queue heads.
//! * **Sharded** — a conservative discrete-event schedule: the fabric is
//!   partitioned into one shard per fat-tree pod plus a core shard (see
//!   [`crate::shard::ShardPlan`]), while hosts, NICs, timers, the
//!   [`World`] and the controller form the *edge shard*. Shards run
//!   windowed rounds (`driver::drive_windowed_rounds`): each round records
//!   the time of every shard's earliest pending event, and then each shard
//!   in turn processes everything strictly below its *horizon* — the
//!   minimum over all shards of `their earliest event + the minimum
//!   latency of any causal chain from them to here`. Cross-shard events
//!   are pushed straight onto the destination shard's queue; they land at
//!   or beyond its horizon, so it sees them in the next round. The minimum
//!   cross-shard latency (fabric/host propagation, punt and packet-out
//!   latency) is the lookahead bound; if any is zero the facade silently
//!   falls back to the sequential driver.
//!
//! # Determinism: both engines are bit-identical
//!
//! Three mechanisms make the engines produce *exactly* the same stats,
//! drop logs, per-packet trajectories, and world observations:
//!
//! 1. **Causal event keys** ([`crate::event::KeyGen`]): ties at equal
//!    timestamps sort on a key derived from the creating event's key plus
//!    a birth index — a pure function of causal history rather than of
//!    queue insertion order, so both engines sort ties identically.
//! 2. **Partitioned RNG streams**: every switch owns an RNG stream (spray
//!    picks, silent-drop coins) and the edge shard owns one (NIC coins,
//!    [`HostApi::rng`]); each stream is consumed only by events of its
//!    shard, which both engines dispatch in the same `(time, key)` order.
//! 3. **Ordered merges**: per-shard drop-log staging buffers merge on
//!    `(time, creating key, birth)` at the end of every run call, and
//!    per-shard event counters/clocks merge by sum/max — independent of
//!    scheduling.
//!
//! Because the handlers are one shared code path and every side effect is
//! either shard-local or merged deterministically, any conservative
//! schedule yields the same results; `tests/prop_shard_equivalence.rs`
//! differentially pins this across topologies, faults, and LB policies.
//!
//! # Observation granularity
//!
//! [`Simulator::now`] and [`Simulator::pending_events`] report the merged
//! global view: the clock is the maximum processed event time (clamped up
//! to the `run_until` horizon) and pending counts sum all shard queues.
//! Both are exact whenever `run_until` has returned — the rounds end only
//! when no event at or before the horizon is pending on any shard — so
//! harnesses stepping the simulation observe identical values on either
//! engine even when a step boundary lands mid-flight ("mid-window").

use crate::config::{EngineKind, SimConfig};
use crate::driver::{drive_windowed_rounds, seq_drive, LaneCtx, Net};
use crate::event::{mix64, EventEntry, EventKind, EventQueue, KeyGen};
use crate::fault::{FaultState, LoadBalance, Misconfig, Quirk, SwitchQuirks};
use crate::packet::Packet;
use crate::shard::{Outgoing, ShardPlan};
use crate::stats::{DropReason, DropRecord, SimStats, DROP_LOG_CAP};
use crate::stats::{LinkCounters, SwitchCounters};
use crate::traits::{CtrlAction, CtrlApi, HostAction, HostApi, Punt, TagPolicy, World};
use pathdump_topology::{
    ecmp_hash, HostId, Nanos, Peer, PortNo, RouteTables, SwitchId, Tier, Topology, UpDownRouting,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Salt for per-switch RNG streams (`seed ^ (BASE + switch index)`).
const SWITCH_STREAM_BASE: u64 = 0x5357_0000_0000_0000;
/// Salt for the edge-shard RNG stream.
const EDGE_STREAM_SALT: u64 = 0xED6E_0000_0000_0001;
/// Salt for root event keys (facade injections).
const ROOT_KEY_BASE: u64 = 0x4007_0000_0000_0000;

/// One egress queue (switch port or host NIC).
#[derive(Debug, Default)]
struct PortState {
    q: VecDeque<Packet>,
    busy: bool,
    fault: FaultState,
}

/// Dynamic state of one switch.
#[derive(Debug)]
struct SwitchState {
    lb: LoadBalance,
    quirks: SwitchQuirks,
    ports: Vec<PortState>,
}

/// A drop-log entry staged in a shard buffer, carrying the merge key
/// (time, key of the event that caused it, birth index within that event).
struct KeyedDrop {
    at: Nanos,
    parent: u64,
    birth: u64,
    rec: DropRecord,
}

/// Stages a drop record into a shard buffer.
fn stage_drop(
    drops: &mut Vec<KeyedDrop>,
    enabled: bool,
    at: Nanos,
    kg: &mut KeyGen,
    rec: DropRecord,
) {
    if enabled && drops.len() < DROP_LOG_CAP {
        let birth = kg.next_birth();
        drops.push(KeyedDrop {
            at,
            parent: kg.parent(),
            birth,
            rec,
        });
    }
}

// ---------------------------------------------------------------------------
// Switch shards: the fabric dataplane.
// ---------------------------------------------------------------------------

/// Mutable state of one switch shard, borrowed from the facade for the
/// duration of one run call. `switches[local]` etc. are indexed by the
/// shard-local rank from [`ShardPlan::local_of_switch`].
struct SwitchCtx<'a> {
    shard: usize,
    switches: Vec<&'a mut SwitchState>,
    rngs: Vec<&'a mut SmallRng>,
    sw_stats: Vec<&'a mut SwitchCounters>,
    port_stats: Vec<&'a mut Vec<LinkCounters>>,
    queue: &'a mut EventQueue,
    drops: &'a mut Vec<KeyedDrop>,
    events: u64,
    max_t: Nanos,
    /// Reusable buffer for per-packet usable-egress filtering (hot path;
    /// avoids a heap allocation per switch hop).
    usable_buf: Vec<PortNo>,
}

/// Schedules a derived event created by shard `shard`: shard-local ones
/// go straight onto that shard's queue, cross-shard ones into the
/// outgoing buffer. One shared routing/key-assignment path for both the
/// switch and edge contexts — the engines' bit-identity depends on it.
fn emit_event(
    net: &Net,
    shard: usize,
    queue: &mut EventQueue,
    at: Nanos,
    kg: &mut KeyGen,
    kind: EventKind,
    out: &mut Vec<Outgoing>,
) {
    let key = kg.next_key();
    let dest = net.plan.dest_shard(&kind);
    if dest == shard {
        queue.push_keyed(at, key, kind);
    } else {
        out.push(Outgoing {
            shard: dest,
            at,
            key,
            kind,
        });
    }
}

impl SwitchCtx<'_> {
    /// Schedules a derived event: shard-local ones go straight onto the
    /// local queue, cross-shard ones into the outgoing buffer.
    fn emit(
        &mut self,
        net: &Net,
        at: Nanos,
        kg: &mut KeyGen,
        kind: EventKind,
        out: &mut Vec<Outgoing>,
    ) {
        emit_event(net, self.shard, self.queue, at, kg, kind, out);
    }

    fn dispatch(&mut self, net: &Net, ev: EventEntry, out: &mut Vec<Outgoing>) {
        self.events += 1;
        if ev.at > self.max_t {
            self.max_t = ev.at;
        }
        let mut kg = KeyGen::new(ev.seq);
        match ev.kind {
            EventKind::SwitchRx { sw, in_port, pkt } => {
                self.handle_switch_rx(net, ev.at, &mut kg, sw, in_port, pkt, out)
            }
            EventKind::PortTx { sw, port } => {
                self.handle_port_tx(net, ev.at, &mut kg, sw, port, out)
            }
            _ => unreachable!("edge event routed to a switch shard"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_switch_rx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        in_port: Option<PortNo>,
        mut pkt: Packet,
        out: &mut Vec<Outgoing>,
    ) {
        let li = net.plan.local_of_switch[sw.index()];
        self.sw_stats[li].rx_pkts += 1;
        if net.cfg.record_ground_truth {
            pkt.gt_path.push(sw);
        }

        // ASIC limit: a packet carrying more tags than the ASIC parses
        // triggers a rule miss and goes to the controller (§3.1).
        if pkt.headers.tag_count() > net.cfg.asic_tag_limit {
            self.sw_stats[li].punts += 1;
            let punt = Punt {
                sw,
                in_port,
                pkt,
                punted_at: now,
            };
            self.emit(
                net,
                now.saturating_add(net.cfg.punt_latency),
                kg,
                EventKind::CtrlRx { punt },
                out,
            );
            return;
        }

        if pkt.ttl == 0 {
            self.sw_stats[li].ttl_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: Some(sw),
                port: in_port,
                reason: DropReason::TtlExpired,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
            return;
        }
        pkt.ttl -= 1;

        let Some(dst_host) = net.topo.host_by_ip(pkt.flow.dst_ip) else {
            self.drop_no_route(net, now, kg, sw, &pkt);
            return;
        };
        let (dst_tor, dst_port) = {
            let hm = net.topo.host(dst_host);
            (hm.tor, hm.tor_port)
        };

        // Canonical candidates under healthy up-down routing, borrowed
        // from the route tables — the forwarding hot path allocates
        // nothing per hop.
        let single = [dst_port];
        let candidates: &[PortNo] = if dst_tor == sw {
            &single
        } else {
            net.routes.candidates_to_tor(sw, dst_tor)
        };

        // Quirks (misconfigurations) override routing entirely.
        let quirk_pick =
            self.switches[li]
                .quirks
                .resolve(&pkt.flow, pkt.flow_size_hint, candidates);

        let out_port = match quirk_pick {
            Some(p) => Some(p),
            None => {
                let mut usable = std::mem::take(&mut self.usable_buf);
                usable.clear();
                usable.extend(
                    candidates
                        .iter()
                        .copied()
                        .filter(|p| self.switches[li].ports[p.index()].fault.usable()),
                );
                let pick = if !usable.is_empty() {
                    self.pick_egress(li, sw, candidates, &usable, &pkt)
                } else {
                    // Failover: bounce out of a usable switch-facing port
                    // other than the ingress (the "simple failover mechanism"
                    // of §4.1's testbed), preferring lower-tier peers — a
                    // bounce toward the edge keeps the detour inside the pod
                    // where an alternate up-path exists.
                    let rank = |t: Tier| match t {
                        Tier::Tor => 0u8,
                        Tier::Agg => 1,
                        Tier::Core => 2,
                    };
                    let own_rank = rank(net.topo.switch(sw).tier);
                    let all: Vec<(PortNo, u8)> = net
                        .topo
                        .switch_neighbors(sw)
                        .into_iter()
                        .filter(|(p, _)| {
                            Some(*p) != in_port && self.switches[li].ports[p.index()].fault.usable()
                        })
                        .map(|(p, nb)| (p, rank(net.topo.switch(nb).tier)))
                        .collect();
                    let lower: Vec<PortNo> = all
                        .iter()
                        .filter(|(_, r)| *r < own_rank)
                        .map(|(p, _)| *p)
                        .collect();
                    let fallback: Vec<PortNo> = if lower.is_empty() {
                        all.into_iter().map(|(p, _)| p).collect()
                    } else {
                        lower
                    };
                    self.pick_egress(li, sw, &fallback, &fallback, &pkt)
                };
                self.usable_buf = usable;
                pick
            }
        };

        let Some(out_port) = out_port else {
            self.drop_no_route(net, now, kg, sw, &pkt);
            return;
        };

        // Trajectory tagging (push_vlan and friends) happens as part of the
        // forwarding action set.
        net.tag.on_forward(sw, in_port, out_port, &mut pkt.headers);

        self.switch_enqueue(net, now, kg, sw, out_port, pkt, out);
    }

    /// Picks one egress among `usable` (all drawn from `canonical`, whose
    /// order anchors WeightedSpray weights).
    fn pick_egress(
        &mut self,
        li: usize,
        sw: SwitchId,
        canonical: &[PortNo],
        usable: &[PortNo],
        pkt: &Packet,
    ) -> Option<PortNo> {
        if usable.is_empty() {
            return None;
        }
        if usable.len() == 1 {
            return Some(usable[0]);
        }
        let rng = &mut *self.rngs[li];
        match &self.switches[li].lb {
            LoadBalance::Ecmp => {
                let salt = 0x9E37_79B9_7F4A_7C15u64 ^ (sw.0 as u64);
                let h = ecmp_hash(&pkt.flow, salt);
                Some(usable[(h % usable.len() as u64) as usize])
            }
            LoadBalance::Spray => {
                let i = rng.gen_range(0..usable.len());
                Some(usable[i])
            }
            LoadBalance::WeightedSpray(weights) => {
                let w: Vec<u64> = usable
                    .iter()
                    .map(|p| {
                        canonical
                            .iter()
                            .position(|c| c == p)
                            .and_then(|i| weights.get(i))
                            .copied()
                            .unwrap_or(1) as u64
                    })
                    .collect();
                let total: u64 = w.iter().sum::<u64>().max(1);
                let mut x = rng.gen_range(0..total);
                for (i, wi) in w.iter().enumerate() {
                    if x < *wi {
                        return Some(usable[i]);
                    }
                    x -= wi;
                }
                Some(*usable.last().expect("non-empty"))
            }
        }
    }

    fn drop_no_route(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        pkt: &Packet,
    ) {
        let li = net.plan.local_of_switch[sw.index()];
        self.sw_stats[li].no_route_drops += 1;
        let rec = DropRecord {
            time: now,
            sw: Some(sw),
            port: None,
            reason: DropReason::NoRoute,
            flow: pkt.flow,
            uid: pkt.uid,
        };
        stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
    }

    #[allow(clippy::too_many_arguments)]
    fn switch_enqueue(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        port: PortNo,
        pkt: Packet,
        out: &mut Vec<Outgoing>,
    ) {
        let li = net.plan.local_of_switch[sw.index()];
        let cap = net.cfg.fabric_link.queue_pkts;
        let st = &mut self.switches[li].ports[port.index()];
        if st.q.len() >= cap {
            self.port_stats[li][port.index()].queue_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: Some(sw),
                port: Some(port),
                reason: DropReason::QueueFull,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
            return;
        }
        st.q.push_back(pkt);
        if !st.busy {
            st.busy = true;
            let tx = net
                .cfg
                .fabric_link
                .tx_time(st.q.front().expect("just pushed").wire_size());
            self.emit(
                net,
                now.saturating_add(tx),
                kg,
                EventKind::PortTx { sw, port },
                out,
            );
        }
    }

    fn handle_port_tx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        port: PortNo,
        out: &mut Vec<Outgoing>,
    ) {
        let li = net.plan.local_of_switch[sw.index()];
        let pkt = {
            let st = &mut self.switches[li].ports[port.index()];
            st.q.pop_front().expect("PortTx with empty queue")
        };
        let counters = &mut self.port_stats[li][port.index()];
        counters.tx_pkts += 1;
        counters.tx_bytes += pkt.wire_size() as u64;

        let fault = self.switches[li].ports[port.index()].fault;
        let mut dropped: Option<DropReason> = None;
        if fault.down {
            self.port_stats[li][port.index()].down_drops += 1;
            dropped = Some(DropReason::LinkDown);
        } else if fault.blackhole {
            self.port_stats[li][port.index()].blackhole_drops += 1;
            dropped = Some(DropReason::Blackhole);
        } else if fault.silent_drop_rate > 0.0
            && self.rngs[li].gen::<f64>() < fault.silent_drop_rate
        {
            self.port_stats[li][port.index()].silent_drops += 1;
            dropped = Some(DropReason::SilentRandom);
        }

        if let Some(reason) = dropped {
            let rec = DropRecord {
                time: now,
                sw: Some(sw),
                port: Some(port),
                reason,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
        } else {
            let arrive = now.saturating_add(net.cfg.fabric_link.prop_delay);
            match net.topo.peer(sw, port) {
                Peer::Switch {
                    sw: nsw,
                    port: nport,
                } => self.emit(
                    net,
                    arrive,
                    kg,
                    EventKind::SwitchRx {
                        sw: nsw,
                        in_port: Some(nport),
                        pkt,
                    },
                    out,
                ),
                Peer::Host(h) => {
                    self.emit(net, arrive, kg, EventKind::HostRx { host: h, pkt }, out)
                }
                Peer::Unconnected => self.drop_no_route(net, now, kg, sw, &pkt),
            }
        }

        // Start serializing the next head-of-line packet, if any.
        let st = &mut self.switches[li].ports[port.index()];
        if let Some(front) = st.q.front() {
            let tx = net.cfg.fabric_link.tx_time(front.wire_size());
            self.emit(
                net,
                now.saturating_add(tx),
                kg,
                EventKind::PortTx { sw, port },
                out,
            );
        } else {
            st.busy = false;
        }
    }
}

impl LaneCtx for SwitchCtx<'_> {
    fn queue_mut(&mut self) -> &mut EventQueue {
        self.queue
    }

    fn dispatch_event(&mut self, net: &Net, ev: EventEntry, out: &mut Vec<Outgoing>) {
        self.dispatch(net, ev, out);
    }
}

// ---------------------------------------------------------------------------
// The edge shard: hosts, NICs, timers, world, controller.
// ---------------------------------------------------------------------------

struct EdgeCtx<'a, W: World> {
    shard: usize,
    world: &'a mut W,
    nics: &'a mut [PortState],
    nic_stats: &'a mut [LinkCounters],
    queue: &'a mut EventQueue,
    rng: &'a mut SmallRng,
    next_uid: &'a mut u64,
    delivered_pkts: &'a mut u64,
    delivered_bytes: &'a mut u64,
    injected_pkts: &'a mut u64,
    drops: &'a mut Vec<KeyedDrop>,
    events: u64,
    max_t: Nanos,
}

impl<W: World> EdgeCtx<'_, W> {
    fn emit(
        &mut self,
        net: &Net,
        at: Nanos,
        kg: &mut KeyGen,
        kind: EventKind,
        out: &mut Vec<Outgoing>,
    ) {
        emit_event(net, self.shard, self.queue, at, kg, kind, out);
    }

    fn dispatch(&mut self, net: &Net, ev: EventEntry, out: &mut Vec<Outgoing>) {
        self.events += 1;
        if ev.at > self.max_t {
            self.max_t = ev.at;
        }
        let mut kg = KeyGen::new(ev.seq);
        match ev.kind {
            EventKind::HostRx { host, pkt } => {
                self.handle_host_rx(net, ev.at, &mut kg, host, pkt, out)
            }
            EventKind::HostTx { host } => self.handle_host_tx(net, ev.at, &mut kg, host, out),
            EventKind::Timer { host, token } => {
                self.handle_timer(net, ev.at, &mut kg, host, token, out)
            }
            EventKind::CtrlRx { punt } => self.handle_ctrl_rx(net, ev.at, &mut kg, punt, out),
            _ => unreachable!("switch event routed to the edge shard"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn nic_enqueue(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        pkt: Packet,
        out: &mut Vec<Outgoing>,
    ) {
        let cap = net.cfg.host_link.queue_pkts;
        let nic = &mut self.nics[host.index()];
        if nic.q.len() >= cap {
            self.nic_stats[host.index()].queue_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: None,
                port: None,
                reason: DropReason::QueueFull,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
            return;
        }
        nic.q.push_back(pkt);
        if !nic.busy {
            nic.busy = true;
            let tx = net
                .cfg
                .host_link
                .tx_time(nic.q.front().expect("just pushed").wire_size());
            self.emit(
                net,
                now.saturating_add(tx),
                kg,
                EventKind::HostTx { host },
                out,
            );
        }
    }

    fn handle_host_tx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        out: &mut Vec<Outgoing>,
    ) {
        let pkt = {
            let nic = &mut self.nics[host.index()];
            nic.q.pop_front().expect("HostTx with empty queue")
        };
        let counters = &mut self.nic_stats[host.index()];
        counters.tx_pkts += 1;
        counters.tx_bytes += pkt.wire_size() as u64;

        let fault = self.nics[host.index()].fault;
        let mut dropped: Option<DropReason> = None;
        if fault.down {
            self.nic_stats[host.index()].down_drops += 1;
            dropped = Some(DropReason::LinkDown);
        } else if fault.blackhole {
            self.nic_stats[host.index()].blackhole_drops += 1;
            dropped = Some(DropReason::Blackhole);
        } else if fault.silent_drop_rate > 0.0 && self.rng.gen::<f64>() < fault.silent_drop_rate {
            self.nic_stats[host.index()].silent_drops += 1;
            dropped = Some(DropReason::SilentRandom);
        }

        if let Some(reason) = dropped {
            let rec = DropRecord {
                time: now,
                sw: None,
                port: None,
                reason,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            stage_drop(self.drops, net.cfg.collect_drop_log, now, kg, rec);
        } else {
            let hm = net.topo.host(host);
            let (tor, tor_port) = (hm.tor, hm.tor_port);
            let arrive = now.saturating_add(net.cfg.host_link.prop_delay);
            self.emit(
                net,
                arrive,
                kg,
                EventKind::SwitchRx {
                    sw: tor,
                    in_port: Some(tor_port),
                    pkt,
                },
                out,
            );
        }

        let nic = &mut self.nics[host.index()];
        if let Some(front) = nic.q.front() {
            let tx = net.cfg.host_link.tx_time(front.wire_size());
            self.emit(
                net,
                now.saturating_add(tx),
                kg,
                EventKind::HostTx { host },
                out,
            );
        } else {
            nic.busy = false;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_host_rx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        pkt: Packet,
        out: &mut Vec<Outgoing>,
    ) {
        *self.delivered_pkts += 1;
        *self.delivered_bytes += pkt.wire_size() as u64;
        let mut actions = Vec::new();
        {
            let mut api = HostApi {
                now,
                host,
                actions: &mut actions,
                rng: self.rng,
                next_uid: self.next_uid,
            };
            self.world.on_packet(&mut api, pkt);
        }
        self.apply_host_actions(net, now, kg, host, actions, out);
    }

    fn handle_timer(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        token: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let mut actions = Vec::new();
        {
            let mut api = HostApi {
                now,
                host,
                actions: &mut actions,
                rng: self.rng,
                next_uid: self.next_uid,
            };
            self.world.on_timer(&mut api, token);
        }
        self.apply_host_actions(net, now, kg, host, actions, out);
    }

    fn apply_host_actions(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        actions: Vec<HostAction>,
        out: &mut Vec<Outgoing>,
    ) {
        for a in actions {
            match a {
                HostAction::Send(mut pkt) => {
                    if pkt.uid == 0 {
                        *self.next_uid += 1;
                        pkt.uid = *self.next_uid;
                    }
                    pkt.ttl = net.cfg.ttl;
                    pkt.sent_at = now;
                    *self.injected_pkts += 1;
                    self.nic_enqueue(net, now, kg, host, pkt, out);
                }
                HostAction::Timer { delay, token } => {
                    self.emit(
                        net,
                        now.saturating_add(delay),
                        kg,
                        EventKind::Timer { host, token },
                        out,
                    );
                }
            }
        }
    }

    fn handle_ctrl_rx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        punt: Punt,
        out: &mut Vec<Outgoing>,
    ) {
        let mut actions = Vec::new();
        {
            let mut api = CtrlApi {
                now,
                actions: &mut actions,
            };
            self.world.on_punt(&mut api, punt);
        }
        for a in actions {
            match a {
                CtrlAction::PacketOut { sw, in_port, pkt } => {
                    self.emit(
                        net,
                        now.saturating_add(net.cfg.packet_out_latency),
                        kg,
                        EventKind::SwitchRx { sw, in_port, pkt },
                        out,
                    );
                }
            }
        }
    }
}

impl<W: World> LaneCtx for EdgeCtx<'_, W> {
    fn queue_mut(&mut self) -> &mut EventQueue {
        self.queue
    }

    fn dispatch_event(&mut self, net: &Net, ev: EventEntry, out: &mut Vec<Outgoing>) {
        self.dispatch(net, ev, out);
    }
}

// ---------------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------------

/// The packet-level network simulator.
///
/// Generic over a [`World`] — the edge logic (transport engines, PathDump
/// agents, controller) — so harnesses retain typed access via
/// [`Simulator::world`]. The public API is engine-agnostic: whether the
/// schedule executes sequentially or sharded per pod
/// ([`SimConfig::engine`]), every observable — stats, drop log, clock,
/// pending counts, world callbacks — is identical (see module docs).
pub struct Simulator<W: World> {
    cfg: SimConfig,
    topo: Topology,
    routes: RouteTables,
    plan: ShardPlan,
    switches: Vec<SwitchState>,
    switch_rngs: Vec<SmallRng>,
    nics: Vec<PortState>,
    tag_policy: Box<dyn TagPolicy>,
    /// The edge logic driving and observing the network.
    pub world: W,
    clock: Nanos,
    /// One event queue per switch shard, plus the edge queue (last).
    queues: Vec<EventQueue>,
    edge_rng: SmallRng,
    next_uid: u64,
    root_seq: u64,
    /// Counters (see [`SimStats`]).
    pub stats: SimStats,
    drop_stage: Vec<Vec<KeyedDrop>>,
}

impl<W: World> Simulator<W> {
    /// Builds a simulator over a routed topology.
    pub fn new<R: UpDownRouting + ?Sized>(
        routing: &R,
        cfg: SimConfig,
        tag_policy: Box<dyn TagPolicy>,
        world: W,
    ) -> Self {
        let topo = routing.topology().clone();
        let routes = RouteTables::build(routing);
        let plan = ShardPlan::build(&topo, &cfg);
        let switches: Vec<SwitchState> = topo
            .switches
            .iter()
            .map(|sw| SwitchState {
                lb: LoadBalance::default(),
                quirks: SwitchQuirks::default(),
                ports: sw.ports.iter().map(|_| PortState::default()).collect(),
            })
            .collect();
        let switch_rngs: Vec<SmallRng> = (0..topo.num_switches())
            .map(|i| SmallRng::seed_from_u64(mix64(cfg.seed ^ (SWITCH_STREAM_BASE + i as u64))))
            .collect();
        let nics = (0..topo.num_hosts())
            .map(|_| PortState::default())
            .collect();
        let ports_per_switch: Vec<usize> = topo.switches.iter().map(|s| s.ports.len()).collect();
        let stats = SimStats::new(topo.num_switches(), &ports_per_switch, topo.num_hosts());
        let queues = (0..plan.total_shards())
            .map(|_| EventQueue::new())
            .collect();
        let drop_stage = (0..plan.total_shards()).map(|_| Vec::new()).collect();
        Simulator {
            edge_rng: SmallRng::seed_from_u64(mix64(cfg.seed ^ EDGE_STREAM_SALT)),
            cfg,
            routes,
            switches,
            switch_rngs,
            nics,
            tag_policy,
            world,
            clock: Nanos::ZERO,
            queues,
            next_uid: 0,
            root_seq: 0,
            stats,
            drop_stage,
            plan,
            topo,
        }
    }

    /// Current simulated time: the latest processed event time, clamped up
    /// to the last `run_until` horizon. Under sharding this is the global
    /// maximum across shards — exact at every `run_until` return (every
    /// shard has processed everything up to the horizon by then).
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The engine that actually executes run calls: [`EngineKind::Sharded`]
    /// requires a partitionable topology (≥ 2 switch shards) and strictly
    /// positive lookahead on every cross-shard channel; otherwise the
    /// facade falls back to the sequential driver.
    pub fn effective_engine(&self) -> EngineKind {
        if self.cfg.engine == EngineKind::Sharded && self.plan.shardable() {
            EngineKind::Sharded
        } else {
            EngineKind::Sequential
        }
    }

    /// Allocates a unique packet ID.
    pub fn alloc_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    fn root_keygen(&mut self) -> KeyGen {
        self.root_seq += 1;
        KeyGen::new(mix64(ROOT_KEY_BASE ^ self.root_seq))
    }

    // --- fault & policy installation -------------------------------------

    /// Looks up the egress port of the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if the switches are not adjacent.
    pub fn link_port(&self, from: SwitchId, to: SwitchId) -> PortNo {
        self.topo
            .switch(from)
            .port_towards(to)
            .unwrap_or_else(|| panic!("{from} and {to} are not adjacent"))
    }

    /// Sets the fault state of the directed link `from -> to`.
    pub fn set_directed_fault(&mut self, from: SwitchId, to: SwitchId, fault: FaultState) {
        let port = self.link_port(from, to);
        self.switches[from.index()].ports[port.index()].fault = fault;
    }

    /// Reads the fault state of the directed link `from -> to`.
    pub fn directed_fault(&self, from: SwitchId, to: SwitchId) -> FaultState {
        let port = self.link_port(from, to);
        self.switches[from.index()].ports[port.index()].fault
    }

    /// Takes the undirected link `a <-> b` down (both directions).
    pub fn set_link_down(&mut self, a: SwitchId, b: SwitchId, down: bool) {
        for (x, y) in [(a, b), (b, a)] {
            let port = self.link_port(x, y);
            self.switches[x.index()].ports[port.index()].fault.down = down;
        }
    }

    /// Sets the fault state of a host-facing ToR egress (the "interface
    /// toward host" direction used for drops-on-server scenarios).
    pub fn set_host_downlink_fault(&mut self, host: HostId, fault: FaultState) {
        let hm = self.topo.host(host).clone();
        self.switches[hm.tor.index()].ports[hm.tor_port.index()].fault = fault;
    }

    /// Sets the fault state of a host NIC (uplink direction).
    pub fn set_nic_fault(&mut self, host: HostId, fault: FaultState) {
        self.nics[host.index()].fault = fault;
    }

    /// Sets the load-balance policy of one switch.
    pub fn set_lb(&mut self, sw: SwitchId, lb: LoadBalance) {
        self.switches[sw.index()].lb = lb;
    }

    /// Sets the load-balance policy of every switch.
    pub fn set_lb_all(&mut self, lb: LoadBalance) {
        for s in &mut self.switches {
            s.lb = lb.clone();
        }
    }

    /// Installs a forwarding quirk on a switch.
    pub fn install_quirk(&mut self, sw: SwitchId, quirk: Quirk) {
        self.switches[sw.index()].quirks.install(quirk);
    }

    /// Removes all quirks from a switch.
    pub fn clear_quirks(&mut self, sw: SwitchId) {
        self.switches[sw.index()].quirks.clear();
    }

    /// Applies a route-table misconfiguration: a persistent rewrite of the
    /// installed candidate sets (see [`Misconfig`]).
    ///
    /// Only candidate *selection* changes — per-link fault filtering,
    /// quirks, load balancing, and drop accounting all run unchanged on the
    /// misrouted traffic, so a packet steered onto a faulty link by a bad
    /// rule is staged in the drop log exactly once by the fault machinery.
    pub fn install_misconfig(&mut self, m: &Misconfig) {
        m.apply(&mut self.routes);
    }

    /// The installed route tables (after any misconfigurations) — the
    /// exact forwarding state the static verifier should analyze.
    pub fn route_tables(&self) -> &RouteTables {
        &self.routes
    }

    // --- injection --------------------------------------------------------

    /// Schedules `World::on_timer(host, token)` after `delay`.
    pub fn schedule_timer(&mut self, host: HostId, delay: Nanos, token: u64) {
        let at = self.clock.saturating_add(delay);
        let mut kg = self.root_keygen();
        let key = kg.next_key();
        let edge = self.plan.edge_shard();
        self.queues[edge].push_keyed(at, key, EventKind::Timer { host, token });
    }

    /// Transmits a packet from `host` (stamping uid/ttl/sent time).
    pub fn send_from(&mut self, host: HostId, mut pkt: Packet) {
        if pkt.uid == 0 {
            pkt.uid = self.alloc_uid();
        }
        pkt.ttl = self.cfg.ttl;
        pkt.sent_at = self.clock;
        self.stats.injected_pkts += 1;
        let now = self.clock;
        let mut kg = self.root_keygen();

        // Borrow an edge context for the enqueue so the logic (queue caps,
        // drop staging, HostTx scheduling) is exactly the in-run path.
        self.with_edge_ctx(|net, ectx| {
            let mut out: Vec<Outgoing> = Vec::new();
            ectx.nic_enqueue(net, now, &mut kg, host, pkt, &mut out);
            // A NIC enqueue can only schedule HostTx, which is edge-local.
            debug_assert!(out.is_empty(), "facade injection cannot cross shards");
        });
        self.merge_staged();
    }

    // --- shared context construction ---------------------------------------

    /// Splits the facade into the read-only [`Net`] view, the per-shard
    /// switch contexts (only when `build_switches`), and the edge context
    /// — the one borrow decomposition both `send_from` and `run_until`
    /// use — runs `f`, then folds the contexts' event totals and clock
    /// back into the facade.
    fn with_ctxs<R>(
        &mut self,
        build_switches: bool,
        f: impl FnOnce(&Net, &mut [SwitchCtx<'_>], &mut EdgeCtx<'_, W>) -> R,
    ) -> R {
        let Simulator {
            cfg,
            topo,
            routes,
            plan,
            switches,
            switch_rngs,
            nics,
            tag_policy,
            world,
            queues,
            edge_rng,
            next_uid,
            stats,
            drop_stage,
            ..
        } = self;
        let SimStats {
            switch_ports,
            switches: sw_counters,
            host_nics,
            delivered_pkts,
            delivered_bytes,
            injected_pkts,
            ..
        } = stats;
        let net = Net {
            cfg,
            topo,
            routes,
            plan,
            tag: tag_policy.as_ref(),
        };

        let (switch_queues, edge_queue) = queues.split_at_mut(plan.edge_shard());
        let (switch_stage, edge_stage) = drop_stage.split_at_mut(plan.edge_shard());

        // Distribute per-switch state into shard contexts (ascending global
        // id per shard, matching `ShardPlan::local_of_switch`).
        let mut sctxs: Vec<SwitchCtx> = Vec::new();
        if build_switches {
            sctxs.reserve(plan.switch_shards);
            let mut queue_it = switch_queues.iter_mut();
            let mut stage_it = switch_stage.iter_mut();
            for s in 0..plan.switch_shards {
                sctxs.push(SwitchCtx {
                    shard: s,
                    switches: Vec::new(),
                    rngs: Vec::new(),
                    sw_stats: Vec::new(),
                    port_stats: Vec::new(),
                    queue: queue_it.next().expect("switch shard queue"),
                    drops: stage_it.next().expect("switch shard stage"),
                    events: 0,
                    max_t: Nanos::ZERO,
                    usable_buf: Vec::new(),
                });
            }
            for (i, st) in switches.iter_mut().enumerate() {
                sctxs[plan.shard_of_switch[i]].switches.push(st);
            }
            for (i, r) in switch_rngs.iter_mut().enumerate() {
                sctxs[plan.shard_of_switch[i]].rngs.push(r);
            }
            for (i, c) in sw_counters.iter_mut().enumerate() {
                sctxs[plan.shard_of_switch[i]].sw_stats.push(c);
            }
            for (i, p) in switch_ports.iter_mut().enumerate() {
                sctxs[plan.shard_of_switch[i]].port_stats.push(p);
            }
        }
        let mut ectx = EdgeCtx {
            shard: plan.edge_shard(),
            world,
            nics,
            nic_stats: host_nics,
            queue: &mut edge_queue[0],
            rng: edge_rng,
            next_uid,
            delivered_pkts,
            delivered_bytes,
            injected_pkts,
            drops: &mut edge_stage[0],
            events: 0,
            max_t: Nanos::ZERO,
        };

        let r = f(&net, &mut sctxs, &mut ectx);

        // Fold per-shard run totals back into the facade.
        let mut events = ectx.events;
        let mut max_t = ectx.max_t;
        for c in &sctxs {
            events += c.events;
            if c.max_t > max_t {
                max_t = c.max_t;
            }
        }
        stats.events += events;
        if max_t > self.clock {
            self.clock = max_t;
        }
        r
    }

    /// [`Self::with_ctxs`] without the switch contexts: the cheap
    /// decomposition for facade operations that only touch the edge shard.
    fn with_edge_ctx<R>(&mut self, f: impl FnOnce(&Net, &mut EdgeCtx<'_, W>) -> R) -> R {
        self.with_ctxs(false, |net, _sctxs, ectx| f(net, ectx))
    }

    // --- run loop ----------------------------------------------------------

    /// Processes events until simulated time `t` (inclusive); the clock ends
    /// at `t` even if the queue drains earlier.
    ///
    /// Events stamped exactly `Nanos::MAX` (a saturated timestamp, e.g. an
    /// overflowing timer delay) are treated as "never" and do not fire on
    /// either engine.
    pub fn run_until(&mut self, t: Nanos) {
        let engine = self.effective_engine();
        self.with_ctxs(true, |net, sctxs, ectx| {
            let mut lanes = all_lanes(sctxs, ectx);
            match engine {
                EngineKind::Sequential => seq_drive(net, &mut lanes, t),
                EngineKind::Sharded => drive_windowed_rounds(net, &mut lanes, t),
            }
        });
        if t > self.clock && t != Nanos::MAX {
            self.clock = t;
        }
        self.merge_staged();
    }

    /// Runs until the event queue drains (or `hard_cap` is reached).
    pub fn run_to_completion(&mut self, hard_cap: Nanos) {
        self.run_until(hard_cap);
    }

    /// Number of pending events across all shards (diagnostics). Exact at
    /// every `run_until` return: derived events go straight onto their
    /// destination shard's queue, so none is in flight between shards.
    pub fn pending_events(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Merges staged per-shard drop records into the public drop log in
    /// `(time, causal key, birth)` order — the sequential processing order,
    /// however the run was scheduled.
    fn merge_staged(&mut self) {
        if self.drop_stage.iter().all(|s| s.is_empty()) {
            return;
        }
        let mut staged: Vec<KeyedDrop> = self
            .drop_stage
            .iter_mut()
            .flat_map(std::mem::take)
            .collect();
        staged.sort_by_key(|d| (d.at, d.parent, d.birth));
        for d in staged {
            if self.stats.drop_log.len() >= DROP_LOG_CAP {
                break;
            }
            self.stats.drop_log.push(d.rec);
        }
    }
}

/// Collects every shard context into the lane list the drivers consume,
/// indexed by shard id: switch shards in shard order, the edge shard last
/// (lane order is also the sequential tie-break order).
fn all_lanes<'c, W: World>(
    sctxs: &'c mut [SwitchCtx<'_>],
    ectx: &'c mut EdgeCtx<'_, W>,
) -> Vec<&'c mut (dyn LaneCtx + 'c)> {
    let mut lanes: Vec<&mut (dyn LaneCtx + 'c)> = sctxs
        .iter_mut()
        .map(|c| c as &mut (dyn LaneCtx + 'c))
        .collect();
    lanes.push(ectx as &mut (dyn LaneCtx + 'c));
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TagHeaders;
    use crate::traits::NoTagging;
    use pathdump_topology::{FatTree, FatTreeParams, FlowId, Path, MILLIS, SECONDS};

    /// Records deliveries and punts; can re-inject punted packets.
    #[derive(Default)]
    struct TestWorld {
        delivered: Vec<(HostId, Packet)>,
        punts: Vec<Punt>,
        reinject_punts: bool,
    }

    impl World for TestWorld {
        fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: Packet) {
            let host = api.host();
            self.delivered.push((host, pkt));
        }
        fn on_timer(&mut self, _api: &mut HostApi<'_>, _token: u64) {}
        fn on_punt(&mut self, api: &mut CtrlApi<'_>, punt: Punt) {
            self.punts.push(punt.clone());
            if self.reinject_punts {
                let mut pkt = punt.pkt;
                pkt.headers.strip();
                api.packet_out(punt.sw, punt.in_port, pkt);
            }
        }
    }

    fn ft4() -> FatTree {
        FatTree::build(FatTreeParams { k: 4 })
    }

    fn sim(ft: &FatTree) -> Simulator<TestWorld> {
        Simulator::new(
            ft,
            SimConfig::for_tests(),
            Box::new(NoTagging),
            TestWorld::default(),
        )
    }

    fn flow(ft: &FatTree, src: HostId, dst: HostId, sport: u16) -> FlowId {
        let t = ft.topology();
        FlowId::tcp(t.host(src).ip, sport, t.host(dst).ip, 80)
    }

    fn one_packet(sim: &mut Simulator<TestWorld>, f: FlowId, src: HostId) {
        let pkt = Packet::data(0, f, 0, 1000, sim.now());
        sim.send_from(src, pkt);
    }

    #[test]
    fn delivers_same_tor() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(0, 0, 1));
        one_packet(&mut s, flow(&ft, a, b, 1000), a);
        s.run_until(Nanos::from_millis(10));
        assert_eq!(s.world.delivered.len(), 1);
        let (h, pkt) = &s.world.delivered[0];
        assert_eq!(*h, b);
        assert_eq!(pkt.gt_path, vec![ft.tor(0, 0)]);
    }

    #[test]
    fn delivers_inter_pod_on_shortest_path() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(2, 1, 1));
        one_packet(&mut s, flow(&ft, a, b, 1000), a);
        s.run_until(Nanos::from_millis(10));
        assert_eq!(s.world.delivered.len(), 1);
        let gt = Path::new(s.world.delivered[0].1.gt_path.clone());
        let shortest = ft.all_paths(a, b);
        assert!(shortest.contains(&gt), "gt {gt} not a shortest path");
    }

    #[test]
    fn ecmp_spreads_distinct_flows() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        for sport in 0..64 {
            one_packet(&mut s, flow(&ft, a, b, 2000 + sport), a);
        }
        s.run_until(Nanos::from_millis(100));
        assert_eq!(s.world.delivered.len(), 64);
        let distinct: std::collections::HashSet<Vec<SwitchId>> = s
            .world
            .delivered
            .iter()
            .map(|(_, p)| p.gt_path.clone())
            .collect();
        assert!(
            distinct.len() >= 3,
            "ECMP used only {} of 4 paths",
            distinct.len()
        );
    }

    #[test]
    fn ecmp_pins_single_flow() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let f = flow(&ft, a, b, 777);
        for _ in 0..32 {
            one_packet(&mut s, f, a);
        }
        s.run_until(Nanos::from_millis(100));
        let distinct: std::collections::HashSet<Vec<SwitchId>> = s
            .world
            .delivered
            .iter()
            .map(|(_, p)| p.gt_path.clone())
            .collect();
        assert_eq!(distinct.len(), 1, "one flow must stay on one ECMP path");
    }

    #[test]
    fn spraying_uses_all_paths() {
        let ft = ft4();
        let mut s = sim(&ft);
        s.set_lb_all(LoadBalance::Spray);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let f = flow(&ft, a, b, 777);
        for _ in 0..200 {
            one_packet(&mut s, f, a);
        }
        s.run_until(Nanos::from_secs(1));
        let distinct: std::collections::HashSet<Vec<SwitchId>> = s
            .world
            .delivered
            .iter()
            .map(|(_, p)| p.gt_path.clone())
            .collect();
        assert_eq!(distinct.len(), 4, "spraying must hit all 4 paths");
    }

    #[test]
    fn weighted_spray_skews() {
        let ft = ft4();
        let mut s = sim(&ft);
        s.set_lb_all(LoadBalance::Spray);
        // Bias the source ToR's uplinks 9:1.
        s.set_lb(ft.tor(0, 0), LoadBalance::WeightedSpray(vec![9, 1]));
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let f = flow(&ft, a, b, 777);
        for _ in 0..100 {
            one_packet(&mut s, f, a);
        }
        s.run_until(Nanos::from_secs(2));
        let via_agg0 = s
            .world
            .delivered
            .iter()
            .filter(|(_, p)| p.gt_path.contains(&ft.agg(0, 0)))
            .count();
        let total = s.world.delivered.len();
        assert!(total >= 95, "most packets must arrive, got {total}");
        assert!(
            via_agg0 > total * 7 / 10,
            "expected heavy skew toward agg0: {via_agg0}/{total}"
        );
    }

    #[test]
    fn link_down_triggers_reroute() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(0, 1, 0));
        // Kill ToR(0,0) -> Agg(0,0); intra-pod flows must all use agg 1.
        s.set_link_down(ft.tor(0, 0), ft.agg(0, 0), true);
        for sport in 0..16 {
            one_packet(&mut s, flow(&ft, a, b, 3000 + sport), a);
        }
        s.run_until(Nanos::from_millis(100));
        assert_eq!(s.world.delivered.len(), 16);
        for (_, p) in &s.world.delivered {
            assert_eq!(p.gt_path, vec![ft.tor(0, 0), ft.agg(0, 1), ft.tor(0, 1)]);
        }
    }

    #[test]
    fn full_uplink_failure_bounces() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        // At Agg(0,0): both core uplinks down; packet must bounce and still
        // get delivered via a longer path.
        s.set_link_down(ft.agg(0, 0), ft.core(0), true);
        s.set_link_down(ft.agg(0, 0), ft.core(1), true);
        // Pin the flow through agg(0,0): only that agg's uplinks are dead.
        s.install_quirk(
            ft.tor(0, 0),
            Quirk::ForwardFlowTo {
                flow: flow(&ft, a, b, 4000),
                port: s.link_port(ft.tor(0, 0), ft.agg(0, 0)),
            },
        );
        one_packet(&mut s, flow(&ft, a, b, 4000), a);
        s.run_until(Nanos::from_millis(100));
        assert_eq!(s.world.delivered.len(), 1);
        let gt = &s.world.delivered[0].1.gt_path;
        assert!(gt.len() > 5, "bounce path must be longer: {gt:?}");
        assert_eq!(gt.last(), Some(&ft.tor(1, 0)));
    }

    #[test]
    fn silent_drops_hidden_from_visible_counters() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(0, 1, 0));
        let victim = ft.agg(0, 0);
        s.set_directed_fault(
            victim,
            ft.tor(0, 1),
            FaultState {
                silent_drop_rate: 1.0,
                ..FaultState::HEALTHY
            },
        );
        // Force all flows through agg(0,0) by killing the path via agg(0,1).
        s.set_link_down(ft.tor(0, 0), ft.agg(0, 1), true);
        for sport in 0..20 {
            one_packet(&mut s, flow(&ft, a, b, 5000 + sport), a);
        }
        s.run_until(Nanos::from_millis(100));
        assert_eq!(s.world.delivered.len(), 0);
        let port = s.link_port(victim, ft.tor(0, 1));
        let c = s.stats.port(victim, port);
        assert_eq!(c.silent_drops, 20);
        assert_eq!(c.visible_drops(), 0, "silent drops must stay invisible");
        assert_eq!(c.tx_pkts, 20, "interface counters look healthy");
    }

    #[test]
    fn blackhole_drops_everything() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(0, 1, 0));
        s.set_directed_fault(
            ft.tor(0, 0),
            ft.agg(0, 0),
            FaultState {
                blackhole: true,
                ..FaultState::HEALTHY
            },
        );
        s.set_link_down(ft.tor(0, 0), ft.agg(0, 1), true);
        for sport in 0..10 {
            one_packet(&mut s, flow(&ft, a, b, 6000 + sport), a);
        }
        s.run_until(Nanos::from_millis(100));
        assert!(s.world.delivered.is_empty());
        let port = s.link_port(ft.tor(0, 0), ft.agg(0, 0));
        assert_eq!(s.stats.port(ft.tor(0, 0), port).blackhole_drops, 10);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let ft = ft4();
        let mut cfg = SimConfig::for_tests();
        cfg.fabric_link.queue_pkts = 4;
        let mut s = Simulator::new(&ft, cfg, Box::new(NoTagging), TestWorld::default());
        // Two senders on different ToR host ports burst into one receiver.
        let (a, b, c) = (ft.host(0, 0, 0), ft.host(0, 0, 1), ft.host(0, 1, 0));
        for sport in 0..60 {
            one_packet(&mut s, flow(&ft, a, c, 7000 + sport), a);
            one_packet(&mut s, flow(&ft, b, c, 8000 + sport), b);
        }
        s.run_until(Nanos::from_secs(1));
        let drops: u64 = (0..2)
            .map(|t| {
                let sw = ft.agg(0, t);
                let p = s.link_port(sw, ft.tor(0, 1));
                s.stats.port(sw, p).queue_drops
            })
            .sum::<u64>()
            + {
                // Drops can also occur at the ToR's agg-facing uplinks.
                let sw = ft.tor(0, 0);
                (0..2)
                    .map(|aidx| {
                        let p = s.link_port(sw, ft.agg(0, aidx));
                        s.stats.port(sw, p).queue_drops
                    })
                    .sum::<u64>()
            }
            + {
                let sw = ft.tor(0, 1);
                let hm = ft.topology().host(c);
                s.stats.port(sw, hm.tor_port).queue_drops
            };
        assert!(
            drops > 0,
            "bursting 120 packets through cap-4 queues must drop"
        );
        assert!(s.world.delivered.len() < 120);
        assert!(!s.stats.drop_log.is_empty());
    }

    /// Tag policy that pushes a constant tag at every switch: after three
    /// switches the packet exceeds the ASIC limit and must be punted.
    struct PushAlways;
    impl TagPolicy for PushAlways {
        fn on_forward(&self, sw: SwitchId, _in: Option<PortNo>, _out: PortNo, h: &mut TagHeaders) {
            h.push_tag(sw.0 % 4096);
        }
    }

    #[test]
    fn three_tags_punt_to_controller() {
        let ft = ft4();
        let mut s = Simulator::new(
            &ft,
            SimConfig::for_tests(),
            Box::new(PushAlways),
            TestWorld::default(),
        );
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        one_packet(&mut s, flow(&ft, a, b, 9000), a);
        s.run_until(Nanos::from_secs(1));
        // tor pushes tag1, agg pushes tag2, core pushes tag3 -> the dst-pod
        // aggregate sees 3 tags and punts.
        assert_eq!(s.world.punts.len(), 1);
        assert_eq!(s.world.delivered.len(), 0);
        let punt = &s.world.punts[0];
        assert_eq!(punt.pkt.headers.tag_count(), 3);
        assert_eq!(ft.coords(punt.sw).0, pathdump_topology::Tier::Agg);
        assert_eq!(s.stats.total_punts(), 1);
    }

    #[test]
    fn controller_reinject_completes_delivery() {
        let ft = ft4();
        let world = TestWorld {
            reinject_punts: true,
            ..Default::default()
        };
        let mut s = Simulator::new(&ft, SimConfig::for_tests(), Box::new(PushAlways), world);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        one_packet(&mut s, flow(&ft, a, b, 9100), a);
        s.run_until(Nanos::from_secs(1));
        // After the controller strips tags and re-injects, the packet
        // accumulates tags again from the punting switch onward: agg pushes
        // one, dst ToR pushes one -> 2 tags, delivered.
        assert_eq!(s.world.punts.len(), 1);
        assert_eq!(s.world.delivered.len(), 1);
        // Punt latency dominates delivery time.
        let cfg = SimConfig::for_tests();
        assert!(s.world.delivered[0].1.sent_at == Nanos::ZERO);
        assert!(s.now() >= cfg.punt_latency);
    }

    #[test]
    fn ttl_backstops_quirk_loops() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let f = flow(&ft, a, b, 9200);
        // agg(0,0) -> core(0) -> agg(1,0) -> core(1) -> agg(0,0) loop.
        s.install_quirk(
            ft.agg(1, 0),
            Quirk::ForwardFlowTo {
                flow: f,
                port: s.link_port(ft.agg(1, 0), ft.core(1)),
            },
        );
        s.install_quirk(
            ft.core(1),
            Quirk::ForwardFlowTo {
                flow: f,
                port: s.link_port(ft.core(1), ft.agg(0, 0)),
            },
        );
        s.install_quirk(
            ft.agg(0, 0),
            Quirk::ForwardFlowTo {
                flow: f,
                port: s.link_port(ft.agg(0, 0), ft.core(0)),
            },
        );
        s.install_quirk(
            ft.core(0),
            Quirk::ForwardFlowTo {
                flow: f,
                port: s.link_port(ft.core(0), ft.agg(1, 0)),
            },
        );
        // Pin the first hop into the loop.
        s.install_quirk(
            ft.tor(0, 0),
            Quirk::ForwardFlowTo {
                flow: f,
                port: s.link_port(ft.tor(0, 0), ft.agg(0, 0)),
            },
        );
        one_packet(&mut s, f, a);
        s.run_until(Nanos::from_secs(1));
        assert!(s.world.delivered.is_empty());
        let ttl_drops: u64 = s.stats.switches.iter().map(|c| c.ttl_drops).sum();
        assert_eq!(
            ttl_drops, 1,
            "loop must end in a TTL drop (no tags = no punt)"
        );
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let ft = ft4();
        let run = || {
            let mut s = sim(&ft);
            s.set_lb_all(LoadBalance::Spray);
            let (a, b) = (ft.host(0, 0, 0), ft.host(3, 1, 1));
            let f = flow(&ft, a, b, 1234);
            for _ in 0..100 {
                one_packet(&mut s, f, a);
            }
            s.run_until(Nanos(SECONDS));
            let paths: Vec<Vec<SwitchId>> = s
                .world
                .delivered
                .iter()
                .map(|(_, p)| p.gt_path.clone())
                .collect();
            (paths, s.stats.events)
        };
        let (p1, e1) = run();
        let (p2, e2) = run();
        assert_eq!(p1, p2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn timers_fire_in_order() {
        let ft = ft4();
        #[derive(Default)]
        struct TimerWorld {
            fired: Vec<(u64, Nanos)>,
        }
        impl World for TimerWorld {
            fn on_packet(&mut self, _api: &mut HostApi<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
                self.fired.push((token, api.now()));
                if token == 1 {
                    api.set_timer(Nanos(5 * MILLIS), 3);
                }
            }
        }
        let mut s = Simulator::new(
            &ft,
            SimConfig::for_tests(),
            Box::new(NoTagging),
            TimerWorld::default(),
        );
        let h = ft.host(0, 0, 0);
        s.schedule_timer(h, Nanos(10 * MILLIS), 2);
        s.schedule_timer(h, Nanos(MILLIS), 1);
        s.run_until(Nanos::from_secs(1));
        assert_eq!(
            s.world.fired,
            vec![
                (1, Nanos(MILLIS)),
                (3, Nanos(6 * MILLIS)),
                (2, Nanos(10 * MILLIS)),
            ]
        );
    }

    #[test]
    fn nic_silent_fault_applies() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(0, 0, 1));
        s.set_nic_fault(
            a,
            FaultState {
                silent_drop_rate: 1.0,
                ..FaultState::HEALTHY
            },
        );
        one_packet(&mut s, flow(&ft, a, b, 1), a);
        s.run_until(Nanos::from_millis(10));
        assert!(s.world.delivered.is_empty());
        assert_eq!(s.stats.host_nics[a.index()].silent_drops, 1);
    }

    // --- engine equivalence & sharding semantics --------------------------

    fn sharded_cfg() -> SimConfig {
        SimConfig::for_tests().with_engine(EngineKind::Sharded)
    }

    /// Drives a mixed workload (ECMP + spray + silent drops + a downed
    /// link) and returns every engine-visible observable.
    #[allow(clippy::type_complexity)]
    fn mixed_run(
        ft: &FatTree,
        cfg: SimConfig,
        t: Nanos,
    ) -> (SimStats, Vec<(HostId, u64, Vec<SwitchId>)>) {
        let mut s = Simulator::new(ft, cfg, Box::new(NoTagging), TestWorld::default());
        s.set_lb(ft.tor(0, 0), LoadBalance::Spray);
        s.set_lb(ft.agg(1, 0), LoadBalance::Spray);
        s.set_directed_fault(
            ft.agg(0, 0),
            ft.tor(0, 1),
            FaultState {
                silent_drop_rate: 0.3,
                ..FaultState::HEALTHY
            },
        );
        s.set_link_down(ft.tor(2, 0), ft.agg(2, 1), true);
        let pairs = [
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 1), (0, 1, 0)),
            ((2, 0, 0), (3, 1, 1)),
            ((1, 1, 0), (2, 1, 0)),
        ];
        for (i, &((sp, st, sh), (dp, dt, dh))) in pairs.iter().enumerate() {
            let (a, b) = (ft.host(sp, st, sh), ft.host(dp, dt, dh));
            for sport in 0..25u16 {
                one_packet(&mut s, flow(ft, a, b, 1000 + 100 * i as u16 + sport), a);
            }
        }
        s.run_until(t);
        let traj = s
            .world
            .delivered
            .iter()
            .map(|(h, p)| (*h, p.uid, p.gt_path.clone()))
            .collect();
        (s.stats.clone(), traj)
    }

    /// The sharded engine must be bit-identical to the sequential
    /// reference on stats and per-packet trajectories.
    #[test]
    fn sharded_engine_matches_sequential() {
        let ft = ft4();
        let t = Nanos::from_millis(500);
        let (seq_stats, seq_traj) = mixed_run(&ft, SimConfig::for_tests(), t);
        assert!(!seq_traj.is_empty(), "workload must deliver packets");
        let (st, tr) = mixed_run(&ft, sharded_cfg(), t);
        assert_eq!(tr, seq_traj, "trajectories diverged");
        assert_eq!(st, seq_stats, "stats diverged");
    }

    /// `now()` and `pending_events()` observed at a `run_until` boundary
    /// that lands mid-flight ("mid-window": unaligned to any event time or
    /// lookahead window) must match the sequential engine exactly, and
    /// resuming from that boundary must converge to the same final state.
    #[test]
    fn mid_window_observation_matches_sequential() {
        let ft = ft4();
        let inject = |s: &mut Simulator<TestWorld>| {
            let (a, b) = (ft.host(0, 0, 0), ft.host(2, 1, 1));
            for sport in 0..40u16 {
                one_packet(s, flow(&ft, a, b, 4000 + sport), a);
            }
        };
        let mut se = sim(&ft);
        let mut sh = Simulator::new(
            &ft,
            sharded_cfg(),
            Box::new(NoTagging),
            TestWorld::default(),
        );
        inject(&mut se);
        inject(&mut sh);
        // 40 packets serialize for 120 us each on the source NIC; stopping
        // at 123.457 us lands mid-stream with events still pending.
        let mid = Nanos(123_457);
        se.run_until(mid);
        sh.run_until(mid);
        assert_eq!(sh.now(), se.now());
        assert_eq!(sh.now(), mid, "clock clamps up to the run horizon");
        assert_eq!(sh.pending_events(), se.pending_events());
        assert!(
            sh.pending_events() > 0,
            "boundary must land mid-flight for this test to bite"
        );
        se.run_until(Nanos::from_secs(2));
        sh.run_until(Nanos::from_secs(2));
        assert_eq!(sh.now(), se.now());
        assert_eq!(sh.pending_events(), 0);
        assert_eq!(sh.stats, se.stats);
    }

    /// A zero cross-shard latency leaves no conservative lookahead: the
    /// facade must fall back to the sequential driver (and still run).
    #[test]
    fn zero_lookahead_falls_back_to_sequential() {
        let ft = ft4();
        let mut cfg = sharded_cfg();
        cfg.packet_out_latency = Nanos::ZERO;
        let mut s = Simulator::new(&ft, cfg, Box::new(NoTagging), TestWorld::default());
        assert_eq!(s.effective_engine(), EngineKind::Sequential);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        one_packet(&mut s, flow(&ft, a, b, 1), a);
        s.run_until(Nanos::from_millis(10));
        assert_eq!(s.world.delivered.len(), 1);
        // With positive lookahead the same config shards.
        let s2 = Simulator::new(
            &ft,
            sharded_cfg(),
            Box::new(NoTagging),
            TestWorld::default(),
        );
        assert_eq!(s2.effective_engine(), EngineKind::Sharded);
    }

    /// An event stamped exactly `Nanos::MAX` (saturated timer delay) is
    /// "never": it fires on neither engine, and `run_to_completion(MAX)`
    /// still terminates with the event left pending — identically.
    #[test]
    fn saturated_timestamp_never_fires_on_either_engine() {
        let ft = ft4();
        let run = |cfg: SimConfig| {
            let mut s = Simulator::new(&ft, cfg, Box::new(NoTagging), TestWorld::default());
            let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
            s.schedule_timer(a, Nanos::MAX, 7); // saturates to Nanos::MAX
            one_packet(&mut s, flow(&ft, a, b, 42), a);
            s.run_to_completion(Nanos::MAX);
            (s.world.delivered.len(), s.pending_events(), s.stats.clone())
        };
        let seq = run(SimConfig::for_tests());
        assert_eq!(seq.0, 1, "the real packet is delivered");
        assert_eq!(seq.1, 1, "the saturated timer stays pending forever");
        assert_eq!(run(sharded_cfg()), seq);
    }

    /// `run_to_completion(Nanos::MAX)` must terminate on the windowed
    /// rounds once the queues drain (regression: the rounds once spun
    /// forever because `gmin > MAX` is unsatisfiable).
    #[test]
    fn run_to_completion_drains_on_all_drivers() {
        let ft = ft4();
        let mut s = Simulator::new(
            &ft,
            sharded_cfg(),
            Box::new(NoTagging),
            TestWorld::default(),
        );
        let (a, b) = (ft.host(0, 0, 0), ft.host(2, 0, 1));
        for sport in 0..10u16 {
            one_packet(&mut s, flow(&ft, a, b, 100 + sport), a);
        }
        s.run_to_completion(Nanos::MAX);
        assert_eq!(s.pending_events(), 0);
        assert_eq!(s.world.delivered.len(), 10);
    }

    /// Determinism also holds run-to-run on the sharded engine.
    #[test]
    fn sharded_determinism_under_fixed_seed() {
        let ft = ft4();
        let t = Nanos::from_millis(400);
        let (s1, t1) = mixed_run(&ft, sharded_cfg(), t);
        let (s2, t2) = mixed_run(&ft, sharded_cfg(), t);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    /// Punting through the controller (cross-shard in both directions:
    /// punt to the edge, packet-out back into the fabric) is identical on
    /// both engines.
    #[test]
    fn sharded_punt_roundtrip_matches_sequential() {
        let ft = ft4();
        let run = |cfg: SimConfig| {
            let world = TestWorld {
                reinject_punts: true,
                ..Default::default()
            };
            let mut s = Simulator::new(&ft, cfg, Box::new(PushAlways), world);
            let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
            for sport in 0..8u16 {
                one_packet(&mut s, flow(&ft, a, b, 9500 + sport), a);
            }
            s.run_until(Nanos::from_secs(1));
            (
                s.stats.clone(),
                s.world.punts.len(),
                s.world
                    .delivered
                    .iter()
                    .map(|(h, p)| (*h, p.uid))
                    .collect::<Vec<_>>(),
            )
        };
        let seq = run(SimConfig::for_tests());
        assert!(seq.1 > 0, "tags must punt");
        assert_eq!(run(sharded_cfg()), seq);
    }
}
