//! The per-host PathDump agent (§2.2, §3.2).
//!
//! On every arriving packet the agent extracts the trajectory headers,
//! updates the per-path flow record in trajectory memory, and strips the
//! headers before the packet would reach the upper stack. FIN/RST or the
//! idle timeout evicts records; the trajectory-construction step (cache +
//! reconstructor) turns link IDs into full paths and writes TIB records.
//! Installed invariants (path conformance, §2.3/§4.1) are checked the
//! moment a new path appears, raising alarms in real time.
//!
//! Invariants are not standing watches. An invariant fires at packet time,
//! on the first sight of a path in the trajectory memory, and the agent's
//! `(flow, reason)` epoch deduplicates its `PC_FAIL` alarms. A standing
//! watch sees a path only once its record is finalized into the TIB, and
//! raises once per false → true flip. Moving invariants into the standing
//! engine would delay and recount those alarms.
//!
//! One agent is one datapath thread feeding one [`TrajectoryMemory`], as
//! in the paper. Flow-sharding the memory update across cores does not
//! pay: it is under a sixth of the agent's per-packet cost, and the
//! decode, TIB insert and WAL append behind it are ordered and serial.

use crate::alarm::{Alarm, Reason};
use crate::query::{Query, Response};
use crate::standing::{StandingEvent, StandingQuery, StandingQueryEngine, WatchId};
use pathdump_cherrypick::{
    CacheKey, DecodeMemo, FatTreeReconstructor, ReconstructError, TrajectoryCache, Vl2Reconstructor,
};
use pathdump_simnet::{Packet, TcpFlags};
use pathdump_tib::{MemKey, PendingRecord, Tib, TibRead, TibRecord, TieredTib, TrajectoryMemory};
use pathdump_topology::{
    FlowId, FnvBuild, HostId, LinkPattern, Nanos, Path, SwitchId, TimeRange, Topology,
};
use pathdump_verifier::IntentModel;
use std::collections::HashMap;
use std::sync::Arc;

/// The reconstruction backend: which structured topology the fabric runs.
#[derive(Clone, Debug)]
pub enum Fabric {
    /// K-ary fat-tree.
    FatTree(FatTreeReconstructor),
    /// VL2.
    Vl2(Vl2Reconstructor),
}

impl Fabric {
    /// The underlying static topology (the agent's "ground truth", §2.2).
    pub fn topology(&self) -> &Topology {
        use pathdump_topology::UpDownRouting;
        match self {
            Fabric::FatTree(r) => r.fattree().topology(),
            Fabric::Vl2(r) => r.vl2().topology(),
        }
    }

    /// Reconstructs a delivered packet's path from its samples.
    pub fn reconstruct(
        &self,
        src: HostId,
        dst: HostId,
        dscp_sample: Option<u8>,
        tags: &[u16],
    ) -> Result<Path, ReconstructError> {
        let mut headers = pathdump_simnet::TagHeaders {
            tags: tags.to_vec(),
            dscp: 0,
        };
        if let Some(s) = dscp_sample {
            headers.set_dscp_sample(s);
        }
        match self {
            Fabric::FatTree(r) => r.reconstruct(src, dst, &headers),
            Fabric::Vl2(r) => r.reconstruct(src, dst, &headers),
        }
    }

    /// True when decoding this sample shape runs the µs-scale
    /// candidate-walk search — the shapes worth routing through a
    /// [`DecodeMemo`] (closed-form decode is cheaper than a memo probe).
    pub fn decode_uses_search(&self, dscp_sample: Option<u8>, tags: &[u16]) -> bool {
        match self {
            Fabric::FatTree(r) => r.decode_uses_search(dscp_sample, tags),
            Fabric::Vl2(r) => r.decode_uses_search(dscp_sample, tags),
        }
    }

    /// Memoized [`reconstruct`](Self::reconstruct): decodes through a
    /// [`DecodeMemo`], reusing the precomputed walk for a previously seen
    /// (ToR pair, sample) shape. Hits allocate nothing and hand the path
    /// back by reference.
    pub fn reconstruct_memo<'m>(
        &self,
        memo: &'m mut DecodeMemo,
        src: HostId,
        dst: HostId,
        dscp_sample: Option<u8>,
        tags: &[u16],
    ) -> Result<&'m Path, ReconstructError> {
        match self {
            Fabric::FatTree(r) => r.reconstruct_memo(memo, src, dst, dscp_sample, tags),
            Fabric::Vl2(r) => r.reconstruct_memo(memo, src, dst, dscp_sample, tags),
        }
    }
}

/// A path-conformance invariant installed on an agent (§2.3: "path length
/// no more than 6, or packets must avoid switchID").
#[derive(Clone, Debug, Default)]
pub struct Invariant {
    /// Maximum allowed hop count (paper counting; `None` = unlimited).
    pub max_hops: Option<usize>,
    /// Switches packets must avoid.
    pub forbidden: Vec<SwitchId>,
    /// Restrict to one flow (`None` = all flows).
    pub flow_filter: Option<pathdump_topology::FlowId>,
    /// Statically verified intent: the observed trajectory must be one of
    /// the intended paths for its (src ToR, dst ToR) pair. Catches
    /// misrouting that drops nothing (shared across agents, hence the
    /// `Arc`).
    pub intent: Option<Arc<IntentModel>>,
}

impl Invariant {
    /// Returns true if `path` violates this invariant for `flow`. The
    /// topology maps the flow's endpoint IPs to their ToRs for the intent
    /// check.
    pub fn violated(&self, topo: &Topology, flow: &pathdump_topology::FlowId, path: &Path) -> bool {
        if let Some(f) = &self.flow_filter {
            if f != flow {
                return false;
            }
        }
        if let Some(max) = self.max_hops {
            if path.num_hops() > max {
                return true;
            }
        }
        if let Some(im) = &self.intent {
            match Self::endpoint_tors(topo, flow) {
                // A trajectory whose endpoints the intent model cannot even
                // place is by definition outside the intended path set.
                None => return true,
                Some((st, dt)) => {
                    if !im.contains(st, dt, path) {
                        return true;
                    }
                }
            }
        }
        self.forbidden.iter().any(|sw| path.contains(*sw))
    }

    /// Maps a flow's endpoint IPs to their ToR switches.
    fn endpoint_tors(
        topo: &Topology,
        flow: &pathdump_topology::FlowId,
    ) -> Option<(SwitchId, SwitchId)> {
        let s = topo.host_by_ip(flow.src_ip)?;
        let d = topo.host_by_ip(flow.dst_ip)?;
        Some((topo.host(s).tor, topo.host(d).tor))
    }
}

/// Agent configuration.
#[derive(Clone, Copy, Debug)]
pub struct AgentConfig {
    /// Trajectory-memory idle eviction timeout (paper: 5 s).
    pub idle_timeout: Nanos,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            idle_timeout: Nanos::from_secs(5),
        }
    }
}

/// Trajectory-cache capacity (entries).
const CACHE_CAPACITY: usize = 4096;

/// Identical-alarm suppression epoch: a (flow, reason) pair that already
/// alarmed within this span is not re-raised (a flow that keeps tripping
/// the same invariant — e.g. re-seen after a FIN eviction, or
/// reconstruction failing again at finalize — would otherwise spam an
/// identical alarm every batch, breaking the standing engine's
/// once-per-transition contract end-to-end).
const ALARM_EPOCH: Nanos = Nanos::from_secs(5);

/// The per-host agent state.
#[derive(Debug)]
pub struct HostAgent {
    host: HostId,
    /// Active per-path flow records.
    pub memory: TrajectoryMemory,
    /// Trajectory cache (srcIP + link IDs → path).
    pub cache: TrajectoryCache,
    /// Memoized decode shared below the cache: (ToR pair, sample shape)
    /// → precomputed walk, so cache misses from different source hosts in
    /// one rack still decode once.
    pub memo: DecodeMemo,
    /// The queryable store: tiered (head + sealed segments, optional WAL
    /// and auto-seal threshold — configure via this field directly).
    pub tib: TieredTib,
    invariants: Vec<Invariant>,
    alarms: Vec<Alarm>,
    /// Standing queries evaluated incrementally per finalized TIB record.
    standing: StandingQueryEngine,
    /// Raise/clear flips from the standing engine (raises also land on
    /// the alarm bus; this keeps the clears for operators).
    standing_events: Vec<StandingEvent>,
    /// Last raise time per (flow, reason code): the identical-alarm
    /// suppression epoch (see `ALARM_EPOCH`).
    raised_epochs: std::collections::HashMap<(pathdump_topology::FlowId, u8), Nanos>,
    /// Reconstruction failures (infeasible trajectories seen), and records
    /// the store refused because they end before they start.
    pub recon_failures: u64,
    /// Packets observed.
    pub packets_seen: u64,
    /// Reusable per-packet record key: the ingest path probes the
    /// trajectory memory with it borrowed, so steady-state packets (known
    /// flow-path) allocate nothing.
    scratch: MemKey,
    /// Reusable cache probe key, for the same reason.
    cache_scratch: CacheKey,
    /// Reusable buffer of one batch's decoded records.
    finalized: Vec<TibRecord>,
}

impl HostAgent {
    /// Creates an agent for `host`.
    pub fn new(host: HostId, cfg: AgentConfig) -> Self {
        HostAgent {
            host,
            memory: TrajectoryMemory::new(cfg.idle_timeout),
            cache: TrajectoryCache::new(CACHE_CAPACITY),
            memo: DecodeMemo::default(),
            tib: TieredTib::new(),
            invariants: Vec::new(),
            alarms: Vec::new(),
            standing: StandingQueryEngine::new(host),
            standing_events: Vec::new(),
            raised_epochs: std::collections::HashMap::new(),
            recon_failures: 0,
            packets_seen: 0,
            scratch: MemKey {
                flow: pathdump_topology::FlowId::tcp(
                    pathdump_topology::Ip(0),
                    0,
                    pathdump_topology::Ip(0),
                    0,
                ),
                dscp_sample: None,
                tags: Vec::with_capacity(4),
            },
            cache_scratch: CacheKey {
                src_ip: pathdump_topology::Ip(0),
                dscp_sample: None,
                tags: Vec::with_capacity(4),
            },
            finalized: Vec::new(),
        }
    }

    /// The host this agent runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Installs a path-conformance invariant checked per new path.
    pub fn install_invariant(&mut self, inv: Invariant) {
        self.invariants.push(inv);
    }

    /// Drains raised alarms.
    pub fn drain_alarms(&mut self) -> Vec<Alarm> {
        std::mem::take(&mut self.alarms)
    }

    /// Registers a standing query evaluated incrementally as records are
    /// finalized into the TIB. A predicate already true at registration
    /// raises immediately; later flips raise once per transition (the
    /// engine's hysteresis contract).
    pub fn watch(&mut self, q: StandingQuery, now: Nanos) -> WatchId {
        let id = self.standing.watch(&self.tib, q, now);
        self.drain_standing_flips();
        id
    }

    /// Removes a standing query. Returns false when the id is unknown.
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        self.standing.unwatch(id)
    }

    /// The standing-query engine (watch states, event-time clock).
    pub fn standing(&self) -> &StandingQueryEngine {
        &self.standing
    }

    /// Drains standing raise/clear flip events (raises were also pushed
    /// onto the alarm bus as they happened).
    pub fn drain_standing_events(&mut self) -> Vec<StandingEvent> {
        std::mem::take(&mut self.standing_events)
    }

    /// Moves fresh engine flips into the event log, forwarding raises to
    /// the alarm bus. Standing raises bypass the (flow, reason) epoch —
    /// the engine already dedups per transition.
    fn drain_standing_flips(&mut self) {
        for ev in self.standing.drain_events() {
            if ev.raised {
                self.alarms.push(ev.alarm.clone());
            }
            self.standing_events.push(ev);
        }
    }

    /// Pushes an alarm unless an identical (flow, reason) alarm was
    /// already raised within the suppression epoch.
    fn raise(&mut self, alarm: Alarm) {
        let key = (alarm.flow, alarm.reason.code());
        let now = alarm.at;
        if let Some(&last) = self.raised_epochs.get(&key) {
            if now.saturating_sub(last) < ALARM_EPOCH {
                return;
            }
        }
        self.raised_epochs.insert(key, now);
        self.alarms.push(alarm);
    }

    /// Processes one arriving packet (the OVS receive hook of Figure 2).
    /// Steady-state packets (live flow-path record) allocate nothing: the
    /// record key is probed borrowed and cloned into the memory only on
    /// first sight of the (flow, path) pair.
    pub fn on_packet(&mut self, fabric: &Fabric, pkt: &Packet, now: Nanos) {
        self.packets_seen += 1;
        self.scratch.flow = pkt.flow;
        self.scratch.dscp_sample = pkt.headers.dscp_sample();
        self.scratch.tags.clear();
        self.scratch.tags.extend_from_slice(&pkt.headers.tags);
        let is_new_path = self
            .memory
            .update_borrowed(&self.scratch, pkt.wire_size(), now);

        // Real-time invariant checks on first sight of a (flow, path) pair.
        if is_new_path && !self.invariants.is_empty() {
            let h = &pkt.headers;
            self.on_new_path(fabric, &pkt.flow, h.dscp_sample(), &h.tags, now);
        }

        if pkt.flags.contains(TcpFlags::FIN) || pkt.flags.contains(TcpFlags::RST) {
            let evicted = self.memory.evict_flow(&pkt.flow, now);
            self.finalize_batch(fabric, evicted, now);
        }
    }

    /// Periodic tick: idle evictions (the NetFlow-style 5-second scan).
    pub fn tick(&mut self, fabric: &Fabric, now: Nanos) {
        let evicted = self.memory.evict_idle(now);
        self.finalize_batch(fabric, evicted, now);
        // An entry older than the epoch suppresses nothing (`raise` would
        // ignore it), so it only costs memory.
        self.raised_epochs
            .retain(|_, last| now.saturating_sub(*last) < ALARM_EPOCH);
    }

    /// Flushes everything from trajectory memory into the TIB.
    pub fn flush(&mut self, fabric: &Fabric, now: Nanos) {
        let evicted = self.memory.flush(now);
        self.finalize_batch(fabric, evicted, now);
    }

    /// Invariant checks for a record seen for the first time (the
    /// real-time half of §2.3).
    fn on_new_path(
        &mut self,
        fabric: &Fabric,
        flow: &FlowId,
        dscp_sample: Option<u8>,
        tags: &[u16],
        now: Nanos,
    ) {
        let topo = fabric.topology();
        match self.construct(fabric, flow, dscp_sample, tags) {
            Ok(path) => {
                let violations: Vec<&Invariant> = self
                    .invariants
                    .iter()
                    .filter(|inv| inv.violated(topo, flow, &path))
                    .collect();
                if !violations.is_empty() {
                    // When an intent-derived invariant fired, attach the
                    // nearest intended path after the observed one so
                    // the alarm shows where the trajectory diverged.
                    let nearest = violations.iter().find_map(|inv| {
                        let im = inv.intent.as_ref()?;
                        let (st, dt) = Invariant::endpoint_tors(topo, flow)?;
                        im.nearest_intended(st, dt, &path)
                    });
                    let mut paths = vec![path];
                    if let Some(n) = nearest {
                        if paths[0] != n {
                            paths.push(n);
                        }
                    }
                    self.raise(Alarm {
                        flow: *flow,
                        reason: Reason::PcFail,
                        paths,
                        host: self.host,
                        at: now,
                    });
                }
            }
            Err(_) => self.note_infeasible(*flow, now),
        }
    }

    /// Trajectory construction for one evicted batch (Figure 2), then one
    /// group commit: the decodable records go to the store as one batch —
    /// one WAL frame, one append — and a record that does not decode, or
    /// that ends before it starts, is counted in `recon_failures`. The
    /// standing engine steps once per record, right after that record's
    /// insert (skipped entirely with no watches), so it observes every
    /// record exactly once across seal boundaries.
    fn finalize_batch(&mut self, fabric: &Fabric, batch: Vec<PendingRecord>, now: Nanos) {
        let mut records = std::mem::take(&mut self.finalized);
        for rec in &batch {
            match self.construct(fabric, &rec.flow, rec.dscp_sample, &rec.tags) {
                Ok(path) => records.push(TibRecord {
                    flow: rec.flow,
                    path,
                    stime: rec.stime,
                    etime: rec.etime,
                    bytes: rec.bytes,
                    pkts: rec.pkts,
                }),
                Err(_) => self.note_infeasible(rec.flow, now),
            }
        }
        let standing = &mut self.standing;
        let mut each = |tib: &TieredTib, rec: &TibRecord| {
            if !standing.is_empty() {
                standing.on_record(tib, rec, now);
            }
        };
        if self.tib.insert_batch(&records, &mut each).is_err() {
            // The store refuses a batch whole for a record that ends before
            // it starts, as one whose packets came with a clock run
            // backwards does: count those as failures and file the rest.
            let before = records.len();
            records.retain(|r| r.etime >= r.stime);
            self.recon_failures += (before - records.len()) as u64;
            let refiled = self.tib.insert_batch(&records, &mut each);
            debug_assert!(refiled.is_ok(), "{refiled:?}");
        }
        self.drain_standing_flips();
        records.clear();
        self.finalized = records;
    }

    /// Trajectory construction: trajectory-cache probe (srcIP + link IDs,
    /// Figure 2), then decode on a miss — through the memo for shapes
    /// that run the µs-scale candidate-walk search (punted stacks, shared
    /// across all hosts of the source rack), directly for closed-form
    /// shapes where the case analysis is cheaper than any memo probe.
    /// Cache probes reuse a scratch key; paths are cloned only to return
    /// an owned record.
    fn construct(
        &mut self,
        fabric: &Fabric,
        flow: &FlowId,
        dscp_sample: Option<u8>,
        tags: &[u16],
    ) -> Result<Path, ReconstructError> {
        let topo = fabric.topology();
        let src = topo
            .host_by_ip(flow.src_ip)
            .ok_or(ReconstructError::Inconsistent("unknown source IP"))?;
        self.cache_scratch.src_ip = flow.src_ip;
        self.cache_scratch.dscp_sample = dscp_sample;
        self.cache_scratch.tags.clear();
        self.cache_scratch.tags.extend_from_slice(tags);
        if let Some(p) = self.cache.probe(&self.cache_scratch) {
            return Ok(p.clone());
        }
        let path = if fabric.decode_uses_search(dscp_sample, tags) {
            fabric
                .reconstruct_memo(&mut self.memo, src, self.host, dscp_sample, tags)?
                .clone()
        } else {
            fabric.reconstruct(src, self.host, dscp_sample, tags)?
        };
        self.cache.insert(self.cache_scratch.clone(), path.clone());
        Ok(path)
    }

    fn note_infeasible(&mut self, flow: pathdump_topology::FlowId, now: Nanos) {
        self.recon_failures += 1;
        self.raise(Alarm {
            flow,
            reason: Reason::InfeasiblePath,
            paths: Vec::new(),
            host: self.host,
            at: now,
        });
    }

    /// Executes a TIB query locally; `include_live` additionally reads the
    /// not-yet-exported trajectory-memory records (§3.2: alarm-driven
    /// debugging "trigger\[s\] the access to the memory for debugging at even
    /// finer-grained time scales") as one more tier of the store: the
    /// answer is what the TIB would say had they been exported just now.
    /// (`Response::merge` joins answers of *different hosts* — per-flow max,
    /// added bins — and would split a flow into its exported and live halves.)
    ///
    /// `GetPoorTcp` is answered empty here — that signal lives in the
    /// transport engine and is supplied by the world's
    /// [`HostView`](crate::world::HostView).
    pub fn execute(&mut self, fabric: &Fabric, q: &Query, include_live: bool) -> Response {
        if !include_live {
            return execute_on_tib(&self.tib, q);
        }
        let live = self.live_tib(fabric);
        execute_on_tib(&self.tib.with_live(&live), q)
    }

    /// Builds a transient TIB view of the live trajectory memory. Records
    /// are inserted in the canonical eviction order so the view (and the
    /// insertion-order-sensitive queries on it) is deterministic.
    fn live_tib(&mut self, fabric: &Fabric) -> Tib {
        let mut live: Vec<PendingRecord> = self
            .memory
            .live_keys()
            .filter_map(|k| self.memory.snapshot(&k))
            .collect();
        live.sort_unstable_by(pathdump_tib::canonical_order);
        let mut tib = Tib::new();
        for snap in live {
            if let Ok(path) = self.construct(fabric, &snap.flow, snap.dscp_sample, &snap.tags) {
                tib.insert(TibRecord {
                    flow: snap.flow,
                    path,
                    stime: snap.stime,
                    etime: snap.etime,
                    bytes: snap.bytes,
                    pkts: snap.pkts,
                });
            }
        }
        tib
    }
}

/// What the query plane asks of a host: its local answer to one query.
///
/// Every [`TibRead`] store answers through [`execute_on_tib`]; the world's
/// [`HostView`](crate::world::HostView) adds the live trajectory memory and
/// the transport monitor. `&mut`, because a live answer decodes through
/// the agent's trajectory cache.
pub trait HostService {
    /// The host's local answer to `q`.
    fn answer(&mut self, q: &Query) -> Response;
}

impl<T: TibRead + ?Sized> HostService for T {
    fn answer(&mut self, q: &Query) -> Response {
        execute_on_tib(self, q)
    }
}

/// Executes a query against one TIB (the pure storage-level evaluator,
/// shared by agents and by every [`TibRead`] store the query plane serves).
///
/// Aggregation is pushed down into the TIB's incremental aggregates:
/// `TopK`, `FlowSizeDist`, `TrafficMatrix` and `HeavyHitters` over an
/// unrestricted time range are served from the running per-flow totals,
/// and range-restricted variants from the bucketed time index — no
/// full record scans on this path.
pub fn execute_on_tib<T: TibRead + ?Sized>(tib: &T, q: &Query) -> Response {
    match q {
        Query::GetFlows { link, range } => Response::Flows(tib.get_flows(*link, *range)),
        Query::GetPaths { flow, link, range } => {
            Response::Paths(tib.get_paths(*flow, *link, *range))
        }
        Query::GetCount { flow, path, range } => {
            let (bytes, pkts) = tib.get_count(*flow, path.as_ref(), *range);
            Response::Count { bytes, pkts }
        }
        Query::GetDuration { flow, path, range } => {
            Response::Duration(tib.get_duration(*flow, path.as_ref(), *range))
        }
        Query::GetPoorTcp { .. } => Response::Flows(Vec::new()),
        Query::FlowSizeDist {
            link,
            range,
            bin_bytes,
        } => {
            let bin = (*bin_bytes).max(1);
            let mut sizes: Vec<u64> = bytes_by(tib, *link, *range, |flow| flow)
                .into_values()
                .map(|bytes| bytes / bin)
                .collect();
            sizes.sort_unstable();
            Response::Hist {
                bin_bytes: *bin_bytes,
                bins: sizes
                    .chunk_by(|a, b| a == b)
                    .map(|run| (run[0], run.len() as u64))
                    .collect(),
            }
        }
        Query::TopK { k, range } => Response::TopK {
            k: *k,
            entries: tib.top_k_flows(*k as usize, *range),
        },
        Query::TrafficMatrix { range } => {
            let pair = |flow: FlowId| (flow.src_ip, flow.dst_ip);
            let mut v: Vec<_> = bytes_by(tib, LinkPattern::ANY, *range, pair)
                .into_iter()
                .collect();
            v.sort_unstable();
            Response::Matrix(v)
        }
        Query::HeavyHitters { min_bytes, range } => {
            let mut flows: Vec<(u64, FlowId)> =
                bytes_by(tib, LinkPattern::ANY, *range, |flow| flow)
                    .into_iter()
                    .filter(|(_, b)| b >= min_bytes)
                    .map(|(f, b)| (b, f))
                    .collect();
            flows.sort_unstable_by(|a, b| b.cmp(a));
            Response::Flows(flows.into_iter().map(|(_, f)| f).collect())
        }
    }
}

/// Byte totals of the flows matching `(link, range)`, grouped by `key`. The
/// traversal only pushes — a hash insert per visit would sit between the
/// scan's independent record loads — and the sums go through one map
/// presized to the visit count.
fn bytes_by<T: TibRead + ?Sized, K: Eq + std::hash::Hash>(
    tib: &T,
    link: LinkPattern,
    range: TimeRange,
    key: impl Fn(FlowId) -> K,
) -> HashMap<K, u64, FnvBuild> {
    let mut visits: Vec<(FlowId, u64)> = Vec::new();
    tib.for_each_flow_count(link, range, &mut |flow, bytes, _| {
        visits.push((flow, bytes))
    });
    let mut sums = HashMap::with_capacity_and_hasher(visits.len(), FnvBuild::default());
    for (flow, bytes) in visits {
        *sums.entry(key(flow)).or_insert(0) += bytes;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_cherrypick::FatTreeCherryPick;
    use pathdump_simnet::TagPolicy;
    use pathdump_topology::TimeRange;
    use pathdump_topology::{FatTree, FatTreeParams, FlowId, PortNo, UpDownRouting};

    fn fabric() -> (FatTree, Fabric, FatTreeCherryPick) {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let f = Fabric::FatTree(FatTreeReconstructor::new(ft.clone()));
        let p = FatTreeCherryPick::new(ft.clone());
        (ft, f, p)
    }

    /// Builds the packet a given shortest path would deliver.
    fn pkt_on_path(
        ft: &FatTree,
        policy: &FatTreeCherryPick,
        flow: FlowId,
        path: &Path,
        bytes: u32,
        fin: bool,
    ) -> Packet {
        let mut pkt = Packet::data(1, flow, 0, bytes, Nanos::ZERO);
        if fin {
            pkt.flags = TcpFlags::FIN;
        }
        // Apply the tag policy along the path exactly like the dataplane.
        let topo = ft.topology();
        for (i, &sw) in path.0.iter().enumerate() {
            let in_port = if i == 0 {
                topo.switch(sw)
                    .ports
                    .iter()
                    .position(|p| matches!(p, pathdump_topology::Peer::Host(_)))
                    .map(|p| PortNo(p as u8))
            } else {
                topo.switch(sw).port_towards(path.0[i - 1])
            };
            policy.on_forward(sw, in_port, PortNo(0), &mut pkt.headers);
        }
        pkt
    }

    fn flow_of(ft: &FatTree, src: HostId, dst: HostId, sport: u16) -> FlowId {
        let t = ft.topology();
        FlowId::tcp(t.host(src).ip, sport, t.host(dst).ip, 80)
    }

    #[test]
    fn a_record_that_ends_before_it_starts_is_counted_and_the_rest_filed() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let path = ft.all_paths(src, dst).remove(0);
        let (early, late) = (flow_of(&ft, src, dst, 1000), flow_of(&ft, src, dst, 1001));
        // `late`'s second packet comes with a clock run backwards, so its
        // record ends before it starts; one flush evicts both flows.
        for (flow, ms) in [(early, 1), (late, 5), (late, 2)] {
            let pkt = pkt_on_path(&ft, &policy, flow, &path, 1000, false);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(ms));
        }
        agent.flush(&fabric, Nanos::from_millis(6));
        assert_eq!(agent.recon_failures, 1);
        let filed = agent.tib.records_vec();
        assert_eq!(filed.len(), 1);
        assert_eq!(filed[0].flow, early);
    }

    #[test]
    fn packet_to_tib_lifecycle() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 1000);
        let path = ft.all_paths(src, dst).remove(0);
        // Two packets, then FIN: record must land in the TIB with counts.
        for fin in [false, false, true] {
            let pkt = pkt_on_path(&ft, &policy, flow, &path, 1000, fin);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        }
        assert_eq!(agent.tib.len(), 1, "FIN evicts straight to the TIB");
        let rec = &agent.tib.records_vec()[0];
        assert_eq!(rec.path, path);
        assert_eq!(rec.pkts, 3);
        assert!(agent.memory.is_empty());
        assert_eq!(agent.recon_failures, 0);
    }

    #[test]
    fn idle_tick_evicts() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(0, 1, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 1001);
        let path = ft.all_paths(src, dst).remove(0);
        let pkt = pkt_on_path(&ft, &policy, flow, &path, 500, false);
        agent.on_packet(&fabric, &pkt, Nanos::from_secs(1));
        agent.tick(&fabric, Nanos::from_secs(2));
        assert_eq!(agent.tib.len(), 0, "not idle long enough");
        agent.tick(&fabric, Nanos::from_secs(7));
        assert_eq!(agent.tib.len(), 1, "5s idle evicts");
    }

    #[test]
    fn per_path_records_under_spraying() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 1002);
        for path in ft.all_paths(src, dst) {
            let pkt = pkt_on_path(&ft, &policy, flow, &path, 700, false);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(5));
        }
        agent.flush(&fabric, Nanos::from_secs(1));
        assert_eq!(agent.tib.len(), 4, "one record per distinct path");
        let paths = agent.tib.get_paths(flow, LinkPattern::ANY, TimeRange::ANY);
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn invariant_raises_pc_fail_in_real_time() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        // Forbid one specific core switch.
        let forbidden = ft.core(0);
        agent.install_invariant(Invariant {
            forbidden: vec![forbidden],
            ..Invariant::default()
        });
        let flow = flow_of(&ft, src, dst, 1003);
        let via_core0 = ft
            .all_paths(src, dst)
            .into_iter()
            .find(|p| p.contains(forbidden))
            .unwrap();
        let pkt = pkt_on_path(&ft, &policy, flow, &via_core0, 400, false);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(9));
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1, "violation alarmed before eviction");
        assert_eq!(alarms[0].reason, Reason::PcFail);
        assert_eq!(alarms[0].paths, vec![via_core0]);
        // A conforming path raises nothing.
        let ok_path = ft
            .all_paths(src, dst)
            .into_iter()
            .find(|p| !p.contains(forbidden))
            .unwrap();
        let pkt = pkt_on_path(
            &ft,
            &policy,
            flow_of(&ft, src, dst, 1004),
            &ok_path,
            400,
            false,
        );
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(10));
        assert!(agent.drain_alarms().is_empty());
    }

    #[test]
    fn max_hops_invariant() {
        let (ft, _, _) = fabric();
        let topo = ft.topology();
        let inv = Invariant {
            max_hops: Some(6),
            ..Invariant::default()
        };
        let f = FlowId::tcp(pathdump_topology::Ip(1), 1, pathdump_topology::Ip(2), 2);
        let short = Path::new((0..5).map(SwitchId).collect());
        let long = Path::new((0..7).map(SwitchId).collect());
        assert!(!inv.violated(topo, &f, &short), "6 hops allowed");
        assert!(inv.violated(topo, &f, &long), "8 hops rejected");
    }

    #[test]
    fn intent_invariant_attaches_nearest_intended_path() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let im = Arc::new(IntentModel::from_routing(&ft).expect("healthy k=4"));
        agent.install_invariant(Invariant {
            intent: Some(im.clone()),
            ..Invariant::default()
        });
        // An intended path raises nothing.
        let good = ft.all_paths(src, dst).remove(0);
        let pkt = pkt_on_path(
            &ft,
            &policy,
            flow_of(&ft, src, dst, 2001),
            &good,
            400,
            false,
        );
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        assert!(agent.drain_alarms().is_empty());
        // A 7-switch bounce walk is outside the intent set: PC_FAIL with
        // the observed path first and the nearest intended path second.
        let detour = Path::new(vec![
            ft.tor(0, 0),
            ft.agg(0, 0),
            ft.core(0),
            ft.agg(1, 0),
            ft.tor(1, 1),
            ft.agg(1, 1),
            ft.tor(1, 0),
        ]);
        let flow = flow_of(&ft, src, dst, 2002);
        let pkt = pkt_on_path(&ft, &policy, flow, &detour, 400, false);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(2));
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].reason, Reason::PcFail);
        assert_eq!(alarms[0].paths.len(), 2, "observed + nearest intended");
        assert_eq!(alarms[0].paths[0], detour);
        let (st, dt) = (ft.tor(0, 0), ft.tor(1, 0));
        assert!(im.contains(st, dt, &alarms[0].paths[1]));
        // Nearest = shares the longest prefix with the observed detour.
        assert_eq!(
            &alarms[0].paths[1].0[..4],
            &[ft.tor(0, 0), ft.agg(0, 0), ft.core(0), ft.agg(1, 0)]
        );
    }

    #[test]
    fn corrupted_tags_raise_infeasible() {
        let (ft, fabric, _) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        agent.install_invariant(Invariant::default());
        let flow = flow_of(&ft, src, dst, 1005);
        let mut pkt = Packet::data(1, flow, 0, 100, Nanos::ZERO);
        // A lying switch: class-A tag for the wrong source ToR position.
        pkt.headers.push_tag(3); // tor_pos 1, agg_pos 1 for k=4
        pkt.headers.push_tag(4); // class B core 0
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        assert_eq!(agent.recon_failures, 1);
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].reason, Reason::InfeasiblePath);
    }

    #[test]
    fn live_memory_visible_to_queries() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(2, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 1006);
        let path = ft.all_paths(src, dst).remove(0);
        let pkt = pkt_on_path(&ft, &policy, flow, &path, 900, false);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        // Not yet exported: TIB-only query sees nothing.
        let q = Query::GetPaths {
            flow,
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
        };
        assert_eq!(agent.execute(&fabric, &q, false), Response::Paths(vec![]));
        // Live view sees the path immediately.
        assert_eq!(
            agent.execute(&fabric, &q, true),
            Response::Paths(vec![path])
        );
    }

    #[test]
    fn live_view_answers_as_one_store() {
        // One flow, three equal packets: two exported by an idle eviction,
        // the third still in trajectory memory.
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(2, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 1007);
        let path = ft.all_paths(src, dst).remove(0);
        let pkt = pkt_on_path(&ft, &policy, flow, &path, 900, false);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(3));
        agent.tick(&fabric, Nanos::from_secs(7));
        agent.on_packet(&fabric, &pkt, Nanos::from_secs(8));
        let exported = agent.tib.records_vec();
        assert_eq!((exported.len(), exported[0].pkts), (1, 2));
        let per_pkt = exported[0].bytes / 2;

        // The reference: a store that was handed the live record too.
        let mut whole = TieredTib::new();
        whole.insert(exported[0].clone());
        whole.insert(TibRecord {
            stime: Nanos::from_secs(8),
            etime: Nanos::from_secs(8),
            bytes: per_pkt,
            pkts: 1,
            ..exported[0].clone()
        });
        let range = TimeRange::ANY;
        for q in [
            Query::GetCount {
                flow,
                path: None,
                range,
            },
            Query::GetDuration {
                flow,
                path: None,
                range,
            },
            Query::TopK { k: 5, range },
            Query::FlowSizeDist {
                link: LinkPattern::ANY,
                range,
                bin_bytes: 1000,
            },
            Query::HeavyHitters {
                min_bytes: 3 * per_pkt,
                range,
            },
        ] {
            let got = agent.execute(&fabric, &q, true);
            assert_eq!(got, execute_on_tib(&whole, &q), "{q:?}");
        }
        // One flow of three packets — not two flows, not the larger half.
        let top = Query::TopK { k: 5, range };
        assert_eq!(
            agent.execute(&fabric, &top, true),
            Response::TopK {
                k: 5,
                entries: vec![(3 * per_pkt, flow)]
            }
        );
    }

    #[test]
    fn alarm_epoch_dedup_suppresses_retriggered_invariant() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let forbidden = ft.core(0);
        agent.install_invariant(Invariant {
            forbidden: vec![forbidden],
            ..Invariant::default()
        });
        let flow = flow_of(&ft, src, dst, 5000);
        let bad = ft
            .all_paths(src, dst)
            .into_iter()
            .find(|p| p.contains(forbidden))
            .unwrap();
        // Each FIN packet is a fresh record (the previous one was evicted),
        // so every arrival re-trips the invariant. Without the per-(flow,
        // reason) epoch, every batch re-raises the same violation.
        for t in [1u64, 2, 3] {
            let pkt = pkt_on_path(&ft, &policy, flow, &bad, 300, true);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(t));
        }
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1, "re-trips within the epoch are deduped");
        assert_eq!(alarms[0].reason, Reason::PcFail);
        assert_eq!(alarms[0].at, Nanos::from_millis(1));
        // Past the epoch (default 5 s) the same violation is news again.
        let pkt = pkt_on_path(&ft, &policy, flow, &bad, 300, true);
        agent.on_packet(&fabric, &pkt, Nanos::from_secs(6));
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1, "epoch expiry re-raises");
        assert_eq!(alarms[0].at, Nanos::from_secs(6));
        // Other flows are keyed independently, even inside the epoch.
        let other = flow_of(&ft, src, dst, 5001);
        let pkt = pkt_on_path(&ft, &policy, other, &bad, 300, true);
        agent.on_packet(&fabric, &pkt, Nanos::from_secs(6));
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1, "distinct flow raises its own alarm");
        assert_eq!(alarms[0].flow, other);
    }

    #[test]
    fn alarm_epoch_dedup_state_is_pruned_by_tick() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let forbidden = ft.core(0);
        agent.install_invariant(Invariant {
            forbidden: vec![forbidden],
            ..Invariant::default()
        });
        let bad = ft
            .all_paths(src, dst)
            .into_iter()
            .find(|p| p.contains(forbidden))
            .unwrap();
        let flows: Vec<FlowId> = (0..16).map(|i| flow_of(&ft, src, dst, 6000 + i)).collect();
        for flow in &flows {
            let pkt = pkt_on_path(&ft, &policy, *flow, &bad, 300, true);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        }
        assert_eq!(agent.drain_alarms().len(), flows.len());
        assert_eq!(agent.raised_epochs.len(), flows.len());
        // Inside the epoch a tick keeps every entry: they still suppress.
        agent.tick(&fabric, Nanos::from_secs(1));
        assert_eq!(agent.raised_epochs.len(), flows.len());
        // Past the epoch (default 5 s) none can suppress anything.
        agent.tick(&fabric, Nanos::from_secs(6));
        assert!(agent.raised_epochs.is_empty(), "expired entries are pruned");
        // A re-trip after the prune raises exactly once, as before it.
        for t in [7u64, 8] {
            let pkt = pkt_on_path(&ft, &policy, flows[0], &bad, 300, true);
            agent.on_packet(&fabric, &pkt, Nanos::from_secs(t));
        }
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].at, Nanos::from_secs(7));
        assert_eq!(agent.raised_epochs.len(), 1);
    }

    #[test]
    fn alarm_epoch_dedup_is_per_reason() {
        let (ft, fabric, _) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        agent.install_invariant(Invariant::default());
        let flow = flow_of(&ft, src, dst, 5002);
        // Two corrupted-tag packets for the same flow, distinct tag sets so
        // each creates a fresh memory record: one INFEASIBLE_PATH alarm.
        for tags in [[3u16, 4], [3, 5]] {
            let mut pkt = Packet::data(1, flow, 0, 100, Nanos::ZERO);
            pkt.headers.push_tag(tags[0]);
            pkt.headers.push_tag(tags[1]);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        }
        assert_eq!(agent.recon_failures, 2, "both failures are counted");
        let alarms = agent.drain_alarms();
        assert_eq!(alarms.len(), 1, "same (flow, reason) within the epoch");
        assert_eq!(alarms[0].reason, Reason::InfeasiblePath);
    }

    #[test]
    fn memo_amortizes_punted_walks_across_rack_sources() {
        let (ft, fabric, policy) = fabric();
        // A 7-switch bounce walk: 3 samples, decoded via the candidate-
        // walk search — exactly the shape the memo exists for.
        let walk = vec![
            ft.tor(0, 0),
            ft.agg(0, 0),
            ft.core(0),
            ft.agg(1, 0),
            ft.tor(1, 0),
            ft.agg(1, 1),
            ft.tor(1, 1),
        ];
        let dst = ft.host(1, 1, 0);
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        // Two different sources in the same rack: distinct srcIPs miss the
        // trajectory cache separately, but share one memoized walk search.
        for (i, src) in [ft.host(0, 0, 0), ft.host(0, 0, 1)].into_iter().enumerate() {
            let flow = flow_of(&ft, src, dst, 3000 + i as u16);
            let pkt = pkt_on_path(&ft, &policy, flow, &Path::new(walk.clone()), 200, true);
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(i as u64));
        }
        assert_eq!(agent.tib.len(), 2, "both punted flows reconstructed");
        assert!(agent.tib.records_vec().iter().all(|r| r.path.0 == walk));
        assert_eq!(agent.cache.stats(), (0, 2), "per-srcIP cache misses");
        assert_eq!(agent.memo.stats(), (1, 1), "one search, one memo hit");
    }

    #[test]
    fn closed_form_decodes_skip_the_memo() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 0, 0));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let flow = flow_of(&ft, src, dst, 4000);
        let path = ft.all_paths(src, dst).remove(0);
        let pkt = pkt_on_path(&ft, &policy, flow, &path, 100, true);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
        assert_eq!(agent.tib.len(), 1);
        assert_eq!(
            agent.memo.stats(),
            (0, 0),
            "≤2-tag shapes decode closed-form, cheaper than a memo probe"
        );
    }

    #[test]
    fn cache_accelerates_repeated_paths() {
        let (ft, fabric, policy) = fabric();
        let (src, dst) = (ft.host(0, 0, 0), ft.host(1, 1, 1));
        let mut agent = HostAgent::new(dst, AgentConfig::default());
        let path = ft.all_paths(src, dst).remove(0);
        for sport in 0..20 {
            let flow = flow_of(&ft, src, dst, 2000 + sport);
            let mut pkt = pkt_on_path(&ft, &policy, flow, &path, 100, false);
            pkt.flags = TcpFlags::FIN; // immediate eviction/construction
            agent.on_packet(&fabric, &pkt, Nanos::from_millis(sport as u64));
        }
        let (hits, misses) = agent.cache.stats();
        assert_eq!(misses, 1, "same srcIP+tags constructs once");
        assert_eq!(hits, 19);
        assert_eq!(agent.tib.len(), 20);
    }
}
