//! The discrete-event simulator: switches with match-action forwarding,
//! output-queued ports, fault injection, tag policies, and the controller
//! slow path.
//!
//! # One event loop
//!
//! [`Simulator::run_until`] pops one [`EventQueue`] in `(time, causal
//! key)` order and calls the handler of each event directly on the
//! simulator's own state. For the duration of a run call (or a
//! `send_from`) that state is split in two: [`Net`], the read-only half
//! every handler consults (configuration, topology, route tables, tag
//! policy), and [`Ctx`], the `&mut` half they change (switches, NICs, RNG
//! streams, counters, the queue, the [`World`]).
//!
//! # Determinism
//!
//! A run is a pure function of the configuration, the seed and the calls
//! made on the facade, and `tests/golden.rs` pins that function — its
//! digests were recorded from the two-engine simulator this loop replaced.
//! What makes results what they are:
//!
//! 1. **Causal event keys** ([`crate::event::KeyGen`]): same-time events
//!    sort on a key derived from the creating event's key plus a birth
//!    index — a function of causal history, not of the order pushes
//!    happened to reach the heap (see `event.rs`).
//! 2. **Partitioned RNG streams**: every switch owns one (spray picks,
//!    silent-drop coins) and the hosts share one (NIC coins,
//!    [`HostApi::rng`]), so a draw at one switch never shifts the sequence
//!    another switch sees.
//! 3. **Drops are recorded where they happen**, in processing order, by
//!    [`SimStats::log_drop`]; a logged drop also takes a birth index, so
//!    the keys of the events its handler creates afterwards are the
//!    recorded ones.
//!
//! # Observation granularity
//!
//! [`Simulator::now`] is the latest processed event time, clamped up to
//! the last `run_until` horizon, and [`Simulator::pending_events`] the
//! queue length. A harness slicing a run into many `run_until` steps —
//! boundaries landing mid-flight included — observes exactly what one
//! coarse run does (`tests/prop_stepping.rs`).

use crate::config::SimConfig;
use crate::event::{mix64, EventEntry, EventKind, EventQueue, KeyGen};
use crate::fault::{FaultState, LoadBalance, Misconfig, Quirk, SwitchQuirks};
use crate::packet::Packet;
use crate::stats::{DropReason, DropRecord, SimStats};
use crate::traits::{CtrlAction, CtrlApi, HostAction, HostApi, Punt, TagPolicy, World};
use pathdump_topology::{
    ecmp_hash, HostId, Nanos, Peer, PortNo, RouteTables, SwitchId, Tier, Topology, UpDownRouting,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Salt for per-switch RNG streams (`seed ^ (BASE + switch index)`).
const SWITCH_STREAM_BASE: u64 = 0x5357_0000_0000_0000;
/// Salt for the hosts' RNG stream.
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

/// The read-only half of the simulator during a run call.
struct Net<'a> {
    cfg: &'a SimConfig,
    topo: &'a Topology,
    routes: &'a RouteTables,
    tag: &'a dyn TagPolicy,
}

/// The mutable half: everything a handler may change. `switches` and
/// `switch_rngs` are indexed by `SwitchId::index()`, `nics` by
/// `HostId::index()`.
struct Ctx<'a, W: World> {
    switches: &'a mut [SwitchState],
    switch_rngs: &'a mut [SmallRng],
    nics: &'a mut [PortState],
    world: &'a mut W,
    queue: &'a mut EventQueue,
    edge_rng: &'a mut SmallRng,
    next_uid: &'a mut u64,
    stats: &'a mut SimStats,
    /// Reusable buffer for per-packet usable-egress filtering (hot path;
    /// avoids a heap allocation per switch hop).
    usable_buf: Vec<PortNo>,
}

impl<W: World> Ctx<'_, W> {
    /// Schedules an event created by the dispatch (or facade call) `kg`
    /// belongs to.
    fn emit(&mut self, at: Nanos, kg: &mut KeyGen, kind: EventKind) {
        self.queue.push_keyed(at, kg.next_key(), kind);
    }

    /// Records a drop. With the log enabled the drop takes a birth index
    /// of its own, whether or not the log still has room: the keys of its
    /// later siblings must not depend on how full the log is.
    fn log_drop(&mut self, net: &Net, kg: &mut KeyGen, rec: DropRecord) {
        let enabled = net.cfg.collect_drop_log;
        if enabled {
            kg.skip_birth();
        }
        self.stats.log_drop(enabled, rec);
    }

    fn dispatch(&mut self, net: &Net, ev: EventEntry) {
        self.stats.events += 1;
        let now = ev.at;
        let kg = &mut KeyGen::new(ev.seq);
        match *ev.kind {
            EventKind::SwitchRx { sw, in_port, pkt } => {
                self.handle_switch_rx(net, now, kg, sw, in_port, pkt)
            }
            EventKind::PortTx { sw, port } => self.handle_port_tx(net, now, kg, sw, port),
            EventKind::HostRx { host, pkt } => self.handle_host_rx(net, now, kg, host, pkt),
            EventKind::HostTx { host } => self.handle_host_tx(net, now, kg, host),
            EventKind::Timer { host, token } => self.handle_timer(net, now, kg, host, token),
            EventKind::CtrlRx { punt } => self.handle_ctrl_rx(net, now, kg, punt),
        }
    }

    // --- the fabric dataplane ---------------------------------------------

    fn handle_switch_rx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        in_port: Option<PortNo>,
        mut pkt: Packet,
    ) {
        let si = sw.index();
        self.stats.switches[si].rx_pkts += 1;
        if net.cfg.record_ground_truth {
            pkt.gt_path.push(sw);
        }

        // ASIC limit: a packet carrying more tags than the ASIC parses
        // triggers a rule miss and goes to the controller (§3.1).
        if pkt.headers.tag_count() > net.cfg.asic_tag_limit {
            self.stats.switches[si].punts += 1;
            let punt = Punt {
                sw,
                in_port,
                pkt,
                punted_at: now,
            };
            self.emit(
                now.saturating_add(net.cfg.punt_latency),
                kg,
                EventKind::CtrlRx { punt },
            );
            return;
        }

        if pkt.ttl == 0 {
            self.stats.switches[si].ttl_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: Some(sw),
                port: in_port,
                reason: DropReason::TtlExpired,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            self.log_drop(net, kg, rec);
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
            self.switches[si]
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
                        .filter(|p| self.switches[si].ports[p.index()].fault.usable()),
                );
                let pick = if !usable.is_empty() {
                    self.pick_egress(sw, candidates, &usable, &pkt)
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
                            Some(*p) != in_port && self.switches[si].ports[p.index()].fault.usable()
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
                    self.pick_egress(sw, &fallback, &fallback, &pkt)
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

        self.switch_enqueue(net, now, kg, sw, out_port, pkt);
    }

    /// Picks one egress among `usable` (all drawn from `canonical`, whose
    /// order anchors WeightedSpray weights).
    fn pick_egress(
        &mut self,
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
        let rng = &mut self.switch_rngs[sw.index()];
        match &self.switches[sw.index()].lb {
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
        self.stats.switches[sw.index()].no_route_drops += 1;
        let rec = DropRecord {
            time: now,
            sw: Some(sw),
            port: None,
            reason: DropReason::NoRoute,
            flow: pkt.flow,
            uid: pkt.uid,
        };
        self.log_drop(net, kg, rec);
    }

    fn switch_enqueue(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        port: PortNo,
        pkt: Packet,
    ) {
        let cap = net.cfg.fabric_link.queue_pkts;
        let st = &mut self.switches[sw.index()].ports[port.index()];
        if st.q.len() >= cap {
            self.stats.switch_ports[sw.index()][port.index()].queue_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: Some(sw),
                port: Some(port),
                reason: DropReason::QueueFull,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            self.log_drop(net, kg, rec);
            return;
        }
        st.q.push_back(pkt);
        if !st.busy {
            st.busy = true;
            let tx = net
                .cfg
                .fabric_link
                .tx_time(st.q.front().expect("just pushed").wire_size());
            self.emit(now.saturating_add(tx), kg, EventKind::PortTx { sw, port });
        }
    }

    fn handle_port_tx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        sw: SwitchId,
        port: PortNo,
    ) {
        let (si, pi) = (sw.index(), port.index());
        let st = &mut self.switches[si].ports[pi];
        let pkt = st.q.pop_front().expect("PortTx with empty queue");
        let fault = st.fault;
        let counters = &mut self.stats.switch_ports[si][pi];
        counters.tx_pkts += 1;
        counters.tx_bytes += pkt.wire_size() as u64;

        let mut dropped: Option<DropReason> = None;
        if fault.down {
            counters.down_drops += 1;
            dropped = Some(DropReason::LinkDown);
        } else if fault.blackhole {
            counters.blackhole_drops += 1;
            dropped = Some(DropReason::Blackhole);
        } else if fault.silent_drop_rate > 0.0
            && self.switch_rngs[si].gen::<f64>() < fault.silent_drop_rate
        {
            counters.silent_drops += 1;
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
            self.log_drop(net, kg, rec);
        } else {
            let arrive = now.saturating_add(net.cfg.fabric_link.prop_delay);
            match net.topo.peer(sw, port) {
                Peer::Switch {
                    sw: nsw,
                    port: nport,
                } => self.emit(
                    arrive,
                    kg,
                    EventKind::SwitchRx {
                        sw: nsw,
                        in_port: Some(nport),
                        pkt,
                    },
                ),
                Peer::Host(h) => self.emit(arrive, kg, EventKind::HostRx { host: h, pkt }),
                Peer::Unconnected => self.drop_no_route(net, now, kg, sw, &pkt),
            }
        }

        // Start serializing the next head-of-line packet, if any.
        let st = &mut self.switches[si].ports[pi];
        if let Some(front) = st.q.front() {
            let tx = net.cfg.fabric_link.tx_time(front.wire_size());
            self.emit(now.saturating_add(tx), kg, EventKind::PortTx { sw, port });
        } else {
            st.busy = false;
        }
    }

    // --- hosts, NICs, timers, world, controller ---------------------------

    fn nic_enqueue(&mut self, net: &Net, now: Nanos, kg: &mut KeyGen, host: HostId, pkt: Packet) {
        let cap = net.cfg.host_link.queue_pkts;
        let nic = &mut self.nics[host.index()];
        if nic.q.len() >= cap {
            self.stats.host_nics[host.index()].queue_drops += 1;
            let rec = DropRecord {
                time: now,
                sw: None,
                port: None,
                reason: DropReason::QueueFull,
                flow: pkt.flow,
                uid: pkt.uid,
            };
            self.log_drop(net, kg, rec);
            return;
        }
        nic.q.push_back(pkt);
        if !nic.busy {
            nic.busy = true;
            let tx = net
                .cfg
                .host_link
                .tx_time(nic.q.front().expect("just pushed").wire_size());
            self.emit(now.saturating_add(tx), kg, EventKind::HostTx { host });
        }
    }

    fn handle_host_tx(&mut self, net: &Net, now: Nanos, kg: &mut KeyGen, host: HostId) {
        let nic = &mut self.nics[host.index()];
        let pkt = nic.q.pop_front().expect("HostTx with empty queue");
        let fault = nic.fault;
        let counters = &mut self.stats.host_nics[host.index()];
        counters.tx_pkts += 1;
        counters.tx_bytes += pkt.wire_size() as u64;

        let mut dropped: Option<DropReason> = None;
        if fault.down {
            counters.down_drops += 1;
            dropped = Some(DropReason::LinkDown);
        } else if fault.blackhole {
            counters.blackhole_drops += 1;
            dropped = Some(DropReason::Blackhole);
        } else if fault.silent_drop_rate > 0.0
            && self.edge_rng.gen::<f64>() < fault.silent_drop_rate
        {
            counters.silent_drops += 1;
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
            self.log_drop(net, kg, rec);
        } else {
            let hm = net.topo.host(host);
            let arrive = now.saturating_add(net.cfg.host_link.prop_delay);
            self.emit(
                arrive,
                kg,
                EventKind::SwitchRx {
                    sw: hm.tor,
                    in_port: Some(hm.tor_port),
                    pkt,
                },
            );
        }

        let nic = &mut self.nics[host.index()];
        if let Some(front) = nic.q.front() {
            let tx = net.cfg.host_link.tx_time(front.wire_size());
            self.emit(now.saturating_add(tx), kg, EventKind::HostTx { host });
        } else {
            nic.busy = false;
        }
    }

    fn handle_host_rx(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        pkt: Packet,
    ) {
        self.stats.delivered_pkts += 1;
        self.stats.delivered_bytes += pkt.wire_size() as u64;
        let mut actions = Vec::new();
        {
            let mut api = HostApi {
                now,
                host,
                actions: &mut actions,
                rng: self.edge_rng,
                next_uid: self.next_uid,
            };
            self.world.on_packet(&mut api, pkt);
        }
        self.apply_host_actions(net, now, kg, host, actions);
    }

    fn handle_timer(&mut self, net: &Net, now: Nanos, kg: &mut KeyGen, host: HostId, token: u64) {
        let mut actions = Vec::new();
        {
            let mut api = HostApi {
                now,
                host,
                actions: &mut actions,
                rng: self.edge_rng,
                next_uid: self.next_uid,
            };
            self.world.on_timer(&mut api, token);
        }
        self.apply_host_actions(net, now, kg, host, actions);
    }

    fn apply_host_actions(
        &mut self,
        net: &Net,
        now: Nanos,
        kg: &mut KeyGen,
        host: HostId,
        actions: Vec<HostAction>,
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
                    self.stats.injected_pkts += 1;
                    self.nic_enqueue(net, now, kg, host, pkt);
                }
                HostAction::Timer { delay, token } => {
                    self.emit(
                        now.saturating_add(delay),
                        kg,
                        EventKind::Timer { host, token },
                    );
                }
            }
        }
    }

    fn handle_ctrl_rx(&mut self, net: &Net, now: Nanos, kg: &mut KeyGen, punt: Punt) {
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
                        now.saturating_add(net.cfg.packet_out_latency),
                        kg,
                        EventKind::SwitchRx { sw, in_port, pkt },
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------------

/// The packet-level network simulator.
///
/// Generic over a [`World`] — the edge logic (transport engines, PathDump
/// agents, controller) — so harnesses retain typed access via
/// [`Simulator::world`].
pub struct Simulator<W: World> {
    cfg: SimConfig,
    topo: Topology,
    routes: RouteTables,
    switches: Vec<SwitchState>,
    switch_rngs: Vec<SmallRng>,
    nics: Vec<PortState>,
    tag_policy: Box<dyn TagPolicy>,
    /// The edge logic driving and observing the network.
    pub world: W,
    clock: Nanos,
    queue: EventQueue,
    edge_rng: SmallRng,
    next_uid: u64,
    root_seq: u64,
    /// Counters (see [`SimStats`]).
    pub stats: SimStats,
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
            queue: EventQueue::new(),
            next_uid: 0,
            root_seq: 0,
            stats,
            topo,
        }
    }

    /// Current simulated time: the latest processed event time, clamped up
    /// to the last `run_until` horizon.
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

    /// Takes the undirected link `a <-> b` down (both directions).
    pub fn set_link_down(&mut self, a: SwitchId, b: SwitchId, down: bool) {
        for (x, y) in [(a, b), (b, a)] {
            let port = self.link_port(x, y);
            self.switches[x.index()].ports[port.index()].fault.down = down;
        }
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

    /// Applies a route-table misconfiguration: a persistent rewrite of the
    /// installed candidate sets (see [`Misconfig`]).
    ///
    /// Only candidate *selection* changes — per-link fault filtering,
    /// quirks, load balancing, and drop accounting all run unchanged on the
    /// misrouted traffic, so a packet steered onto a faulty link by a bad
    /// rule is logged exactly once, by the fault machinery.
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
        let key = self.root_keygen().next_key();
        self.queue
            .push_keyed(at, key, EventKind::Timer { host, token });
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
        // The enqueue (queue cap, drop logging, HostTx scheduling) is
        // exactly the in-run path.
        let (net, mut ctx) = self.split();
        ctx.nic_enqueue(&net, now, &mut kg, host, pkt);
    }

    /// Splits the simulator into the halves the handlers run on.
    fn split(&mut self) -> (Net<'_>, Ctx<'_, W>) {
        let net = Net {
            cfg: &self.cfg,
            topo: &self.topo,
            routes: &self.routes,
            tag: self.tag_policy.as_ref(),
        };
        let ctx = Ctx {
            switches: &mut self.switches,
            switch_rngs: &mut self.switch_rngs,
            nics: &mut self.nics,
            world: &mut self.world,
            queue: &mut self.queue,
            edge_rng: &mut self.edge_rng,
            next_uid: &mut self.next_uid,
            stats: &mut self.stats,
            usable_buf: Vec::new(),
        };
        (net, ctx)
    }

    // --- run loop ----------------------------------------------------------

    /// Processes events until simulated time `t` (inclusive); the clock ends
    /// at `t` even if the queue drains earlier.
    ///
    /// Events stamped exactly `Nanos::MAX` are "never" and do not fire
    /// (see `EventQueue::pop_due`).
    pub fn run_until(&mut self, t: Nanos) {
        let mut clock = self.clock;
        let (net, mut ctx) = self.split();
        while let Some(ev) = ctx.queue.pop_due(t) {
            clock = clock.max(ev.at);
            ctx.dispatch(&net, ev);
        }
        // The clock ends at the horizon, unless the horizon is "never".
        self.clock = if t == Nanos::MAX { clock } else { clock.max(t) };
    }

    /// Runs until the event queue drains (or `hard_cap` is reached).
    pub fn run_to_completion(&mut self, hard_cap: Nanos) {
        self.run_until(hard_cap);
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
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

    /// A `run_until` boundary that lands mid-flight (unaligned to any
    /// event time) clamps the clock to the horizon with events still
    /// pending, and resuming from it ends exactly where one coarse run
    /// does.
    #[test]
    fn mid_flight_boundary_clamps_clock_and_resumes() {
        let ft = ft4();
        let start = || {
            let mut s = sim(&ft);
            let (a, b) = (ft.host(0, 0, 0), ft.host(2, 1, 1));
            for sport in 0..40u16 {
                one_packet(&mut s, flow(&ft, a, b, 4000 + sport), a);
            }
            s
        };
        let (mut coarse, mut sliced) = (start(), start());
        // 40 packets serialize for 120 us each on the source NIC; stopping
        // at 123.457 us lands mid-stream with events still pending.
        let mid = Nanos(123_457);
        sliced.run_until(mid);
        assert_eq!(sliced.now(), mid, "clock clamps up to the run horizon");
        assert!(
            sliced.pending_events() > 0,
            "boundary must land mid-flight for this test to bite"
        );
        coarse.run_until(Nanos::from_secs(2));
        sliced.run_until(Nanos::from_secs(2));
        assert_eq!(sliced.now(), coarse.now());
        assert_eq!(sliced.pending_events(), 0);
        assert_eq!(sliced.stats, coarse.stats);
    }

    /// An event stamped exactly `Nanos::MAX` (saturated timer delay) is
    /// "never": it does not fire, and `run_to_completion(MAX)` still
    /// terminates with the event left pending and the clock at the last
    /// real event.
    #[test]
    fn saturated_timestamp_never_fires() {
        let ft = ft4();
        let mut s = sim(&ft);
        let (a, b) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        s.schedule_timer(a, Nanos::MAX, 7); // saturates to Nanos::MAX
        one_packet(&mut s, flow(&ft, a, b, 42), a);
        s.run_to_completion(Nanos::MAX);
        assert_eq!(s.world.delivered.len(), 1, "the real packet is delivered");
        assert_eq!(
            s.pending_events(),
            1,
            "the saturated timer stays pending forever"
        );
        assert!(
            s.now() < Nanos::MAX,
            "\"never\" is not a time the clock reaches"
        );
    }
}
