//! The fleet-level TCP engine: drives every registered flow from the
//! simulator's host callbacks.

use crate::tcp::{token, FlowSpec, ReceiverState, SenderState, TcpConfig};
use pathdump_simnet::{HostApi, Packet, TcpFlags, World};
use pathdump_topology::{FlowId, HostId, Nanos};
use std::collections::HashMap;

/// One flow's complete transport state.
#[derive(Clone, Debug)]
pub struct FlowEntry {
    /// Static description.
    pub spec: FlowSpec,
    /// Sender side (lives at `spec.src`).
    pub sender: SenderState,
    /// Receiver side (lives at `spec.dst`).
    pub receiver: ReceiverState,
}

/// Summary statistics for one flow, as read by monitors and experiments.
#[derive(Clone, Copy, Debug)]
pub struct FlowReport {
    /// The 5-tuple.
    pub flow: FlowId,
    /// Sender host.
    pub src: HostId,
    /// Receiver host.
    pub dst: HostId,
    /// Bytes requested.
    pub size: u64,
    /// Bytes cumulatively acknowledged.
    pub acked: u64,
    /// Unique in-order bytes at the receiver.
    pub received: u64,
    /// Total retransmitted segments.
    pub retrans_total: u64,
    /// Fast retransmissions.
    pub fast_retrans: u64,
    /// Timeout retransmissions.
    pub timeout_retrans: u64,
    /// Current consecutive retransmissions without progress.
    pub consecutive_retrans: u32,
    /// Peak consecutive retransmissions.
    pub max_consecutive_retrans: u32,
    /// Flow start time.
    pub start: Nanos,
    /// Completion time (all bytes acked), if finished.
    pub completed_at: Option<Nanos>,
}

impl FlowReport {
    /// Flow completion time, if completed.
    pub fn fct(&self) -> Option<Nanos> {
        self.completed_at.map(|t| t.saturating_sub(self.start))
    }
}

/// Fleet-level TCP engine (all hosts share it; dispatch is by flow ID).
#[derive(Debug)]
pub struct TcpEngine {
    cfg: TcpConfig,
    flows: Vec<FlowEntry>,
    by_id: HashMap<FlowId, u32>,
}

impl TcpEngine {
    /// Creates an engine.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpEngine {
            cfg,
            flows: Vec::new(),
            by_id: HashMap::new(),
        }
    }

    /// The transport configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Registers a flow; the caller must schedule its start timer with
    /// [`TcpEngine::start_token`] on host `spec.src` at `spec.start`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate flow IDs.
    pub fn add_flow(&mut self, spec: FlowSpec) -> u32 {
        let idx = self.flows.len() as u32;
        assert!(
            self.by_id.insert(spec.flow, idx).is_none(),
            "duplicate flow {}",
            spec.flow
        );
        self.flows.push(FlowEntry {
            spec,
            sender: SenderState::new(&self.cfg),
            receiver: ReceiverState::default(),
        });
        idx
    }

    /// The timer token that starts flow `idx`.
    pub fn start_token(idx: u32) -> u64 {
        token::pack(idx, token::Kind::Start, 0)
    }

    /// Direct access to a flow entry.
    pub fn flow(&self, idx: u32) -> &FlowEntry {
        &self.flows[idx as usize]
    }

    /// Summary for one flow.
    pub fn report(&self, idx: u32) -> FlowReport {
        let e = &self.flows[idx as usize];
        FlowReport {
            flow: e.spec.flow,
            src: e.spec.src,
            dst: e.spec.dst,
            size: e.spec.size,
            acked: e.sender.acked,
            received: e.receiver.bytes_in_order,
            retrans_total: e.sender.retrans_total,
            fast_retrans: e.sender.fast_retrans,
            timeout_retrans: e.sender.timeout_retrans,
            consecutive_retrans: e.sender.consecutive_retrans,
            max_consecutive_retrans: e.sender.max_consecutive_retrans,
            start: e.spec.start,
            completed_at: e.sender.completed_at,
        }
    }

    /// Summaries for every flow.
    pub fn reports(&self) -> impl Iterator<Item = FlowReport> + '_ {
        (0..self.flows.len() as u32).map(|i| self.report(i))
    }

    /// The paper's `getPoorTCPFlows(threshold)` on `host`: the unfinished
    /// flows it sends whose consecutive retransmissions currently exceed
    /// `threshold`.
    pub fn poor_flows(&self, host: HostId, threshold: u32) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|e| e.spec.src == host && e.sender.completed_at.is_none())
            .filter(|e| e.sender.consecutive_retrans > threshold)
            .map(|e| e.spec.flow)
            .collect()
    }

    /// True when every registered flow has completed.
    pub fn all_complete(&self) -> bool {
        self.flows.iter().all(|e| e.sender.completed_at.is_some())
    }

    // --- dataplane hooks ---------------------------------------------------

    /// Handles a packet arriving at `api.host()`.
    pub fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: &Packet) {
        if pkt.is_pure_ack() {
            // ACK for the reversed data flow, delivered to the sender.
            if let Some(&idx) = self.by_id.get(&pkt.flow.reversed()) {
                if self.flows[idx as usize].spec.src == api.host() {
                    self.on_ack(api, idx, pkt.ack);
                }
            }
        } else if let Some(&idx) = self.by_id.get(&pkt.flow) {
            if self.flows[idx as usize].spec.dst == api.host() {
                self.on_data(api, idx, pkt);
            }
        }
    }

    /// Handles a timer firing at `api.host()`.
    pub fn on_timer(&mut self, api: &mut HostApi<'_>, tok: u64) {
        let (idx, kind, epoch) = token::unpack(tok);
        if (idx as usize) >= self.flows.len() {
            return;
        }
        match kind {
            token::Kind::Start => self.on_start(api, idx),
            token::Kind::Rto => self.on_rto(api, idx, epoch),
        }
    }

    fn on_start(&mut self, api: &mut HostApi<'_>, idx: u32) {
        let e = &mut self.flows[idx as usize];
        if e.sender.started {
            return;
        }
        e.sender.started = true;
        self.pump(api, idx);
        self.arm_rto(api, idx);
    }

    /// Sends as much new data as the window allows.
    fn pump(&mut self, api: &mut HostApi<'_>, idx: u32) {
        let mss = self.cfg.mss;
        let e = &mut self.flows[idx as usize];
        let window = e.sender.window_bytes(&self.cfg);
        while e.sender.inflight() < window && e.sender.next_seq < e.spec.size {
            let len = mss.min((e.spec.size - e.sender.next_seq) as u32);
            let uid = api.alloc_uid();
            let mut pkt = Packet::data(uid, e.spec.flow, e.sender.next_seq, len, api.now());
            pkt.flow_size_hint = e.spec.size;
            e.sender.next_seq += len as u64;
            api.send(pkt);
        }
    }

    fn retransmit_hole(&mut self, api: &mut HostApi<'_>, idx: u32) {
        let mss = self.cfg.mss;
        let e = &mut self.flows[idx as usize];
        let seq = e.sender.acked;
        let len = mss.min((e.spec.size - seq) as u32);
        if len == 0 {
            return;
        }
        let uid = api.alloc_uid();
        let mut pkt = Packet::data(uid, e.spec.flow, seq, len, api.now());
        pkt.flow_size_hint = e.spec.size;
        if e.sender.next_seq < seq + len as u64 {
            e.sender.next_seq = seq + len as u64;
        }
        api.send(pkt);
    }

    fn arm_rto(&mut self, api: &mut HostApi<'_>, idx: u32) {
        let e = &mut self.flows[idx as usize];
        if e.sender.completed_at.is_some() || e.sender.inflight() == 0 {
            return;
        }
        e.sender.timer_epoch = e.sender.timer_epoch.wrapping_add(1) & 0x3FFF_FFFF;
        let delay = e.sender.rto(&self.cfg);
        api.set_timer(
            delay,
            token::pack(idx, token::Kind::Rto, e.sender.timer_epoch),
        );
    }

    fn on_ack(&mut self, api: &mut HostApi<'_>, idx: u32, ack: u64) {
        let size = self.flows[idx as usize].spec.size;
        let e = &mut self.flows[idx as usize];
        if e.sender.completed_at.is_some() {
            return;
        }
        if ack > e.sender.acked {
            e.sender.on_progress(ack, &self.cfg);
            if e.sender.acked >= size {
                e.sender.completed_at = Some(api.now());
                if !e.sender.fin_sent {
                    e.sender.fin_sent = true;
                    let uid = api.alloc_uid();
                    let mut fin = Packet::data(uid, e.spec.flow, size, 0, api.now());
                    fin.flags = TcpFlags::FIN;
                    fin.flow_size_hint = size;
                    api.send(fin);
                }
                return;
            }
            self.pump(api, idx);
            self.arm_rto(api, idx);
        } else if ack == self.flows[idx as usize].sender.acked {
            let fires = self.flows[idx as usize].sender.on_dup_ack();
            if fires {
                self.retransmit_hole(api, idx);
                self.arm_rto(api, idx);
            }
        }
    }

    fn on_rto(&mut self, api: &mut HostApi<'_>, idx: u32, epoch: u32) {
        let e = &mut self.flows[idx as usize];
        if e.sender.timer_epoch != epoch
            || e.sender.completed_at.is_some()
            || e.sender.inflight() == 0
        {
            return; // Stale timer.
        }
        e.sender.on_timeout(&self.cfg);
        self.retransmit_hole(api, idx);
        self.arm_rto(api, idx);
    }

    fn on_data(&mut self, api: &mut HostApi<'_>, idx: u32, pkt: &Packet) {
        let e = &mut self.flows[idx as usize];
        let fin = pkt.flags.contains(TcpFlags::FIN);
        let ack = e.receiver.on_data(pkt.seq, pkt.payload, fin, api.now());
        let uid = api.alloc_uid();
        api.send(Packet::ack(uid, e.spec.flow.reversed(), ack, api.now()));
    }
}

/// A [`World`] that runs the TCP engine alone (no PathDump agents) —
/// transport tests and baseline runs.
#[derive(Debug)]
pub struct TcpWorld {
    /// The engine.
    pub engine: TcpEngine,
}

impl TcpWorld {
    /// Wraps an engine.
    pub fn new(engine: TcpEngine) -> Self {
        TcpWorld { engine }
    }
}

impl World for TcpWorld {
    fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: Packet) {
        self.engine.on_packet(api, &pkt);
    }
    fn on_timer(&mut self, api: &mut HostApi<'_>, tok: u64) {
        self.engine.on_timer(api, tok);
    }
}

/// Registers `specs` into a fresh engine and schedules their start timers
/// on `sim`. Returns the flow indices in registration order.
pub fn install_flows<W>(
    sim: &mut pathdump_simnet::Simulator<W>,
    specs: &[FlowSpec],
    take_engine: impl FnOnce(&mut W) -> &mut TcpEngine,
) -> Vec<u32>
where
    W: World,
{
    let engine = take_engine(&mut sim.world);
    let mut idxs = Vec::with_capacity(specs.len());
    for spec in specs {
        idxs.push(engine.add_flow(*spec));
    }
    for (i, spec) in specs.iter().enumerate() {
        sim.schedule_timer(spec.src, spec.start, TcpEngine::start_token(idxs[i]));
    }
    idxs
}
