//! The composite simulation world: PathDump agents on every host, the TCP
//! engine, the active monitoring module, and the controller's trap handler
//! (routing-loop detection).
//!
//! This is Figure 1 assembled: packet stream → OVS hook (agent) → TIB;
//! TCP performance monitoring → alarms; suspiciously long paths → punts →
//! controller.
//!
//! A controller query leaves through `pathdump_rpc::execute`, which runs
//! the aggregation tree over [`PathDumpWorld::host_views`]; each host
//! answers through its [`HostView`]. A standing query registers once per
//! host through [`PathDumpWorld::watch`] and raises as records land.

use crate::agent::{AgentConfig, Fabric, HostAgent, HostService, Invariant};
use crate::alarm::{Alarm, Reason};
use crate::query::{Query, Response};
use pathdump_simnet::{CtrlApi, HostApi, Packet, Punt, World};
use pathdump_topology::{FlowId, HostId, Nanos, SwitchId, MILLIS};
use pathdump_transport::{TcpConfig, TcpEngine};
use std::collections::HashMap;
use std::sync::Arc;

/// Token bit marking core-internal (non-TCP) timers.
const CORE_TOKEN_BIT: u64 = 1 << 63;
/// The per-host periodic tick token.
const TICK_TOKEN: u64 = CORE_TOKEN_BIT | 1;
/// Per-host tick period: the trajectory-memory eviction scan and the TCP
/// monitor poll (paper: 200 ms).
const TICK_PERIOD: Nanos = Nanos(200 * MILLIS);
/// Consecutive retransmissions that make a flow `POOR_PERF` at the tick's
/// monitor poll.
const RETRANS_THRESHOLD: u32 = 2;
/// Minimum spacing between `POOR_PERF` alarms for the same flow: one
/// 200 ms tick.
const ALARM_COOLDOWN: Nanos = Nanos(200 * MILLIS);

/// World configuration: the settings each host's agent is built with. The
/// tick's period and its monitor's thresholds are fixed (200 ms, as in the
/// paper).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldConfig {
    /// Agent settings.
    pub agent: AgentConfig,
}

/// A routing-loop detection produced by the trap handler (§4.5).
#[derive(Clone, Debug)]
pub struct LoopDetection {
    /// The trapped flow.
    pub flow: FlowId,
    /// When the controller concluded "loop".
    pub at: Nanos,
    /// The switch whose punt revealed the loop.
    pub punt_switch: SwitchId,
    /// The repeated link ID that proved the loop.
    pub repeated_link_id: u16,
    /// How many controller visits it took (1 = repeat within one punt).
    pub visits: u32,
}

/// One host as the query plane sees it: its agent, the fabric its paths
/// decode against, and the transport monitor. Only
/// [`PathDumpWorld::host_views`] builds one, for a controller query; its
/// [`answer`](HostService::answer) is the one per-host query dispatch.
pub struct HostView<'a> {
    host: HostId,
    agent: &'a mut HostAgent,
    fabric: &'a Fabric,
    tcp: &'a TcpEngine,
    include_live: bool,
}

impl HostService for HostView<'_> {
    /// `getPoorTCPFlows` from the transport monitor; every other query from
    /// the agent's TIB, plus its live trajectory memory if the view reads
    /// it.
    fn answer(&mut self, q: &Query) -> Response {
        match q {
            Query::GetPoorTcp { threshold } => {
                Response::Flows(self.tcp.poor_flows(self.host, *threshold))
            }
            q => self.agent.execute(self.fabric, q, self.include_live),
        }
    }
}

/// The composite world. Controller queries run over its
/// [`host_views`](PathDumpWorld::host_views) through `pathdump_rpc::execute`.
pub struct PathDumpWorld {
    /// Transport engine (all flows).
    pub tcp: TcpEngine,
    /// Per-host agents.
    pub agents: Vec<HostAgent>,
    /// The fabric (topology + reconstructor), shared.
    pub fabric: Arc<Fabric>,
    /// Alarm bus (drained by debugging applications).
    pub alarms: Vec<Alarm>,
    /// Every punt the controller received.
    pub punts: Vec<Punt>,
    /// Routing-loop detections.
    pub loop_detections: Vec<LoopDetection>,
    /// Per-packet tag history from earlier controller visits ("the
    /// controller locally stores the three tags"): keyed by packet UID —
    /// a retransmission is a different packet and must not inherit the
    /// history, or re-used detour paths would read as loops.
    trap_history: HashMap<u64, (Vec<u16>, u32)>,
    /// Last POOR_PERF alarm per flow (cooldown).
    last_poor_alarm: HashMap<FlowId, Nanos>,
}

impl PathDumpWorld {
    /// Builds the world for a fabric.
    pub fn new(fabric: Fabric, tcp_cfg: TcpConfig, cfg: WorldConfig) -> Self {
        let n = fabric.topology().num_hosts();
        let agents = (0..n)
            .map(|i| HostAgent::new(HostId(i as u32), cfg.agent))
            .collect();
        PathDumpWorld {
            tcp: TcpEngine::new(tcp_cfg),
            agents,
            fabric: Arc::new(fabric),
            alarms: Vec::new(),
            punts: Vec::new(),
            loop_detections: Vec::new(),
            trap_history: HashMap::new(),
            last_poor_alarm: HashMap::new(),
        }
    }

    /// Schedules the initial per-host ticks; call once after building the
    /// simulator.
    pub fn start<W>(sim: &mut pathdump_simnet::Simulator<W>)
    where
        W: World,
    {
        let n = sim.topology().num_hosts();
        for i in 0..n {
            // Stagger ticks so 100+ hosts do not fire in lock-step.
            let offset = Nanos((i as u64 % 16) * MILLIS);
            sim.schedule_timer(HostId(i as u32), offset, TICK_TOKEN);
        }
    }

    /// Installs an invariant on a set of hosts (path conformance, §2.3):
    /// once on each distinct host's agent, as [`PathDumpWorld::watch`]
    /// registers. A host with no agent gets none. Returns the hosts that
    /// got it, in first-appearance order.
    pub fn install_invariant(&mut self, hosts: &[HostId], inv: Invariant) -> Vec<HostId> {
        let mut installed = Vec::new();
        for &h in hosts {
            if installed.contains(&h) {
                continue;
            }
            if let Some(agent) = self.agents.get_mut(h.index()) {
                agent.install_invariant(inv.clone());
                installed.push(h);
            }
        }
        installed
    }

    /// Controller API `watch(List<HostID>, StandingQuery)`: registers a
    /// standing predicate once on each distinct host's agent, in
    /// first-appearance order. A host with no agent gets no watch and is
    /// absent from the returned list. Raises (including a
    /// registration-time raise if the predicate already holds) surface on
    /// the world alarm bus through the regular per-tick drain.
    pub fn watch(
        &mut self,
        hosts: &[HostId],
        q: crate::standing::StandingQuery,
        now: Nanos,
    ) -> Vec<(HostId, crate::standing::WatchId)> {
        let mut ids = Vec::new();
        for &h in hosts {
            if ids.iter().any(|(seen, _)| *seen == h) {
                continue;
            }
            if let Some(agent) = self.agents.get_mut(h.index()) {
                ids.push((h, agent.watch(q.clone(), now)));
            }
        }
        ids
    }

    /// Removes a standing query from one host. Returns whether it existed;
    /// false for a host with no agent.
    pub fn unwatch(&mut self, host: HostId, id: crate::standing::WatchId) -> bool {
        self.agents
            .get_mut(host.index())
            .is_some_and(|a| a.unwatch(id))
    }

    /// Drains raise/clear flip events from every host's standing engine,
    /// tagged with the emitting host.
    pub fn drain_standing_events(&mut self) -> Vec<(HostId, crate::standing::StandingEvent)> {
        let mut out = Vec::new();
        for (i, a) in self.agents.iter_mut().enumerate() {
            for ev in a.drain_standing_events() {
                out.push((HostId(i as u32), ev));
            }
        }
        out
    }

    /// Every host as the query plane sees it (index = host), reading the
    /// live trajectory memory too when `include_live` is set.
    pub fn host_views(&mut self, include_live: bool) -> Vec<HostView<'_>> {
        let (fabric, tcp) = (&*self.fabric, &self.tcp);
        self.agents
            .iter_mut()
            .enumerate()
            .map(|(i, agent)| HostView {
                host: HostId(i as u32),
                agent,
                fabric,
                tcp,
                include_live,
            })
            .collect()
    }

    /// Drains the alarm bus.
    pub fn drain_alarms(&mut self) -> Vec<Alarm> {
        std::mem::take(&mut self.alarms)
    }

    /// Flushes every agent's trajectory memory into its TIB (end of run),
    /// moving the alarms the flush raised to the world bus as a tick does.
    pub fn flush_all(&mut self, now: Nanos) {
        let fabric = Arc::clone(&self.fabric);
        for a in &mut self.agents {
            a.flush(&fabric, now);
            self.alarms.extend(a.drain_alarms());
        }
    }

    fn tick_host(&mut self, api: &mut HostApi<'_>, host: HostId) {
        let now = api.now();
        let fabric = Arc::clone(&self.fabric);
        // 1. Trajectory-memory eviction scan.
        self.agents[host.index()].tick(&fabric, now);
        self.alarms.extend(self.agents[host.index()].drain_alarms());

        // 2. Active TCP monitoring (the tcpretrans substitute): alert on
        //    flows sourced here with excessive consecutive retransmissions.
        for flow in self.tcp.poor_flows(host, RETRANS_THRESHOLD) {
            let due = match self.last_poor_alarm.get(&flow) {
                Some(last) => now.saturating_sub(*last) >= ALARM_COOLDOWN,
                None => true,
            };
            if due {
                self.last_poor_alarm.insert(flow, now);
                self.alarms.push(Alarm {
                    flow,
                    reason: Reason::PoorPerf,
                    paths: Vec::new(),
                    host,
                    at: now,
                });
            }
        }

        // Re-arm the tick.
        api.set_timer(TICK_PERIOD, TICK_TOKEN);
    }
}

impl World for PathDumpWorld {
    fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: Packet) {
        let host = api.host();
        // The agent sees the packet first (the OVS extract-and-strip hook),
        // then the upper stack processes it.
        let fabric = Arc::clone(&self.fabric);
        self.agents[host.index()].on_packet(&fabric, &pkt, api.now());
        self.alarms.extend(self.agents[host.index()].drain_alarms());
        self.tcp.on_packet(api, &pkt);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
        if token & CORE_TOKEN_BIT != 0 {
            let host = api.host();
            if token == TICK_TOKEN {
                self.tick_host(api, host);
            }
        } else {
            self.tcp.on_timer(api, token);
        }
    }

    fn on_punt(&mut self, api: &mut CtrlApi<'_>, punt: Punt) {
        self.punts.push(punt.clone());
        let now = api.now();
        let flow = punt.pkt.flow;
        let uid = punt.pkt.uid;
        let tags = punt.pkt.headers.tags.clone();

        // Figure 9 logic: a repeated link ID inside the carried tags means
        // a loop right away; otherwise compare with tags stored from the
        // previous visit of this flow, then strip and re-inject.
        let mut repeated: Option<u16> = None;
        let mut seen = std::collections::HashSet::new();
        for &t in &tags {
            if !seen.insert(t) {
                repeated = Some(t);
                break;
            }
        }
        let visits = self.trap_history.get(&uid).map(|(_, v)| *v).unwrap_or(0) + 1;
        if repeated.is_none() {
            if let Some((prev, _)) = self.trap_history.get(&uid) {
                repeated = tags.iter().find(|t| prev.contains(t)).copied();
            }
        }
        match repeated {
            Some(link_id) => {
                self.loop_detections.push(LoopDetection {
                    flow,
                    at: now,
                    punt_switch: punt.sw,
                    repeated_link_id: link_id,
                    visits,
                });
                self.trap_history.remove(&uid);
                // The packet is held at the controller (not re-injected):
                // the loop is live and the operator now knows.
            }
            None => {
                let mut stored = tags;
                if let Some((prev, _)) = self.trap_history.get(&uid) {
                    stored.extend_from_slice(prev);
                }
                self.trap_history.insert(uid, (stored, visits));
                let mut pkt = punt.pkt;
                pkt.headers.strip();
                api.packet_out(punt.sw, punt.in_port, pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
    use pathdump_simnet::{Quirk, SimConfig, Simulator};
    use pathdump_tib::TibRead;
    use pathdump_topology::{FatTree, FatTreeParams, LinkPattern, TimeRange, UpDownRouting};
    use pathdump_transport::FlowSpec;

    fn setup(ft: &FatTree) -> Simulator<PathDumpWorld> {
        let world = PathDumpWorld::new(
            Fabric::FatTree(FatTreeReconstructor::new(ft.clone())),
            TcpConfig::default(),
            WorldConfig::default(),
        );
        let mut sim = Simulator::new(
            ft,
            SimConfig::for_tests(),
            Box::new(FatTreeCherryPick::new(ft.clone())),
            world,
        );
        PathDumpWorld::start(&mut sim);
        sim
    }

    fn flow_of(ft: &FatTree, src: HostId, dst: HostId, sport: u16) -> FlowId {
        let t = ft.topology();
        FlowId::tcp(t.host(src).ip, sport, t.host(dst).ip, 80)
    }

    #[test]
    fn end_to_end_flow_lands_in_dst_tib() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut sim = setup(&ft);
        let (src, dst) = (ft.host(0, 0, 0), ft.host(2, 1, 0));
        let spec = FlowSpec {
            flow: flow_of(&ft, src, dst, 4000),
            src,
            dst,
            size: 300_000,
            start: Nanos::ZERO,
        };
        pathdump_transport::install_flows(&mut sim, &[spec], |w| &mut w.tcp);
        sim.run_until(Nanos::from_secs(20));
        assert!(sim.world.tcp.all_complete());
        // FIN triggers eviction at the destination agent.
        let agent = &mut sim.world.agents[dst.index()];
        let paths = agent
            .tib
            .get_paths(spec.flow, LinkPattern::ANY, TimeRange::ANY);
        assert_eq!(paths.len(), 1, "ECMP flow pins one path");
        assert!(ft.all_paths(src, dst).contains(&paths[0]));
        // The source agent recorded the reverse ACK flow.
        let src_agent = &sim.world.agents[src.index()];
        assert!(src_agent.packets_seen > 0, "ACKs observed at the sender");
        // Byte counts: at least the flow size made it into the TIB.
        let (bytes, pkts) =
            sim.world.agents[dst.index()]
                .tib
                .get_count(spec.flow, None, TimeRange::ANY);
        assert!(pkts >= 300_000 / 1460);
        assert!(bytes >= 300_000);
    }

    #[test]
    fn poor_perf_alarms_for_blackholed_flow() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut sim = setup(&ft);
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        // Blackhole both uplinks of the source ToR.
        for a in 0..2 {
            sim.set_directed_fault(
                ft.tor(0, 0),
                ft.agg(0, a),
                pathdump_simnet::FaultState {
                    blackhole: true,
                    ..pathdump_simnet::FaultState::HEALTHY
                },
            );
        }
        let spec = FlowSpec {
            flow: flow_of(&ft, src, dst, 4100),
            src,
            dst,
            size: 100_000,
            start: Nanos::ZERO,
        };
        pathdump_transport::install_flows(&mut sim, &[spec], |w| &mut w.tcp);
        sim.run_until(Nanos::from_secs(10));
        let alarms = sim.world.drain_alarms();
        let poor: Vec<&Alarm> = alarms
            .iter()
            .filter(|a| a.reason == Reason::PoorPerf)
            .collect();
        assert!(!poor.is_empty(), "monitor must raise POOR_PERF");
        assert!(poor.iter().all(|a| a.flow == spec.flow && a.host == src));
        // Cooldown: alarms are spaced, not one per tick... at 200ms ticks
        // over 10s with 200ms cooldown there can be at most ~50.
        assert!(poor.len() <= 55);
    }

    #[test]
    fn routing_loop_detected_via_punts() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut sim = setup(&ft);
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let flow = flow_of(&ft, src, dst, 4200);
        // Build a 4-switch loop: agg(0,0) -> core(0) -> agg(1,0) -> core(1)
        // -> agg(0,0), entered from tor(0,0).
        sim.install_quirk(
            ft.tor(0, 0),
            Quirk::ForwardFlowTo {
                flow,
                port: sim.link_port(ft.tor(0, 0), ft.agg(0, 0)),
            },
        );
        sim.install_quirk(
            ft.agg(0, 0),
            Quirk::ForwardFlowTo {
                flow,
                port: sim.link_port(ft.agg(0, 0), ft.core(0)),
            },
        );
        sim.install_quirk(
            ft.core(0),
            Quirk::ForwardFlowTo {
                flow,
                port: sim.link_port(ft.core(0), ft.agg(1, 0)),
            },
        );
        sim.install_quirk(
            ft.agg(1, 0),
            Quirk::ForwardFlowTo {
                flow,
                port: sim.link_port(ft.agg(1, 0), ft.core(1)),
            },
        );
        sim.install_quirk(
            ft.core(1),
            Quirk::ForwardFlowTo {
                flow,
                port: sim.link_port(ft.core(1), ft.agg(0, 0)),
            },
        );
        // One packet into the loop.
        let pkt = Packet::data(0, flow, 0, 1000, Nanos::ZERO);
        sim.send_from(src, pkt);
        sim.run_until(Nanos::from_secs(5));
        assert!(
            !sim.world.loop_detections.is_empty(),
            "loop must be detected (punts: {})",
            sim.world.punts.len()
        );
        let det = &sim.world.loop_detections[0];
        assert_eq!(det.flow, flow);
        assert!(det.visits <= 2, "4-switch loop detected within 2 visits");
        // Detection latency is punt-latency bound, not TTL bound.
        let cfg = SimConfig::for_tests();
        assert!(det.at >= cfg.punt_latency);
        assert!(det.at < Nanos::from_secs(1));
    }
}
