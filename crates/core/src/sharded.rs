//! Per-core sharded host-agent ingest.
//!
//! The paper's host agent is a single OVS datapath thread; on a
//! multi-queue NIC the natural scaling move is RSS-style flow sharding:
//! N worker threads, each owning a private [`TrajectoryMemory`] shard,
//! with packets partitioned by a hash of the 5-tuple so every flow's
//! records live in exactly one shard.
//!
//! # Merge semantics (why this is bit-identical to one thread)
//!
//! Everything downstream of the trajectory memory — the trajectory
//! cache, the decode memo, invariant alarms, and the TIB — is kept
//! single-writer and fed by an **ordered replay**:
//!
//! 1. Each packet in an [`ShardedAgent::ingest`] window carries its
//!    global arrival index. Workers update only their own shard and
//!    record two kinds of events: *first sight* of a (flow, path)
//!    record, and the FIN/RST *eviction batch* a packet triggered.
//! 2. After the workers join, events are merged by `(arrival index,
//!    first-sight-before-eviction)` and replayed through the same
//!    private [`HostAgent`] paths the single-threaded agent runs inline
//!    — so cache probes, memo fills, alarms, and TIB inserts happen in
//!    exactly the order a lone thread would have produced them.
//!
//! Per-record counters need no replay at all: updates of one key all
//! happen on one shard in arrival order, and idle eviction / flush /
//! live-view output is defined by [`pathdump_tib::canonical_order`] — a
//! pure function of the record *set* — so concatenating per-shard
//! batches and sorting reproduces the unsharded byte stream. The
//! differential suite in `crates/core/tests/sharded_equivalence.rs`
//! pins all of this against [`HostAgent`] for arbitrary worker counts.

use crate::agent::{execute_on_tib, AgentConfig, Fabric, HostAgent, Invariant};
use crate::alarm::Alarm;
use crate::query::{Query, Response};
use pathdump_simnet::{Packet, TcpFlags};
use pathdump_tib::{MemKey, PendingRecord, TieredTib, TrajectoryMemory};
use pathdump_topology::{FlowId, FnvBuild, HostId, Nanos};
use std::hash::BuildHasher;

/// Stable flow → shard assignment: FNV over the 5-tuple. All packets of
/// a flow (and hence all its per-path records, FIN evictions included)
/// land on one shard.
pub fn shard_of(flow: &FlowId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (FnvBuild::default().hash_one(flow) % shards as u64) as usize
}

/// One replayable thing a worker observed, tagged with the packet's
/// global arrival index. First-sight precedes eviction for the same
/// packet (a flow's first packet can carry FIN), mirroring the inline
/// order in [`HostAgent::on_packet`].
enum Event {
    /// `update_borrowed` created the record: candidate invariant check.
    FirstSight { idx: u32, key: MemKey },
    /// FIN/RST evicted the flow's records (already in canonical order).
    Evicted { idx: u32, batch: Vec<PendingRecord> },
}

impl Event {
    fn order(&self) -> (u32, u8) {
        match self {
            Event::FirstSight { idx, .. } => (*idx, 0),
            Event::Evicted { idx, .. } => (*idx, 1),
        }
    }
}

/// The body of one ingest worker: runs the packets at `idxs` (arrival
/// indices into `pkts`, ascending) through `shard` and returns what the
/// ordered replay needs, in arrival order.
fn ingest_shard(
    shard: &mut TrajectoryMemory,
    pkts: &[(Packet, Nanos)],
    idxs: impl Iterator<Item = u32>,
) -> Vec<Event> {
    let mut out: Vec<Event> = Vec::new();
    let mut scratch = MemKey {
        flow: pkts[0].0.flow,
        dscp_sample: None,
        tags: Vec::with_capacity(4),
    };
    for i in idxs {
        let (pkt, now) = &pkts[i as usize];
        scratch.flow = pkt.flow;
        scratch.dscp_sample = pkt.headers.dscp_sample();
        scratch.tags.clear();
        scratch.tags.extend_from_slice(&pkt.headers.tags);
        if shard.update_borrowed(&scratch, pkt.wire_size(), *now) {
            out.push(Event::FirstSight {
                idx: i,
                key: scratch.clone(),
            });
        }
        if pkt.flags.contains(TcpFlags::FIN) || pkt.flags.contains(TcpFlags::RST) {
            let batch = shard.evict_flow(&pkt.flow, *now);
            if !batch.is_empty() {
                out.push(Event::Evicted { idx: i, batch });
            }
        }
    }
    out
}

/// A [`HostAgent`] whose trajectory memory is split into per-worker
/// shards, ingesting packet windows on scoped threads. Construction,
/// queries, alarms and the TIB keep the exact single-threaded behavior
/// (see the module docs for the argument).
#[derive(Debug)]
pub struct ShardedAgent {
    /// The merge half: cache, memo, TIB, invariants and alarms. Its own
    /// trajectory memory stays empty — live records are in `shards`.
    inner: HostAgent,
    shards: Vec<TrajectoryMemory>,
}

impl ShardedAgent {
    /// Creates an agent for `host` with `workers` ingest shards.
    pub fn new(host: HostId, cfg: AgentConfig, workers: usize) -> Self {
        let workers = workers.max(1);
        ShardedAgent {
            inner: HostAgent::new(host, cfg),
            shards: (0..workers)
                .map(|_| TrajectoryMemory::new(cfg.idle_timeout))
                .collect(),
        }
    }

    /// Number of ingest shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The host this agent runs on.
    pub fn host(&self) -> HostId {
        self.inner.host()
    }

    /// Installs a path-conformance invariant checked per new path.
    pub fn install_invariant(&mut self, inv: Invariant) {
        self.inner.install_invariant(inv);
    }

    /// Removes all invariants.
    pub fn clear_invariants(&mut self) {
        self.inner.clear_invariants();
    }

    /// Drains raised alarms.
    pub fn drain_alarms(&mut self) -> Vec<Alarm> {
        self.inner.drain_alarms()
    }

    /// Registers a standing query (see [`HostAgent::watch`]). The
    /// ordered replay funnels every finalized record through the same
    /// engine, so flips stay bit-identical to the single-threaded agent.
    pub fn watch(
        &mut self,
        q: crate::standing::StandingQuery,
        now: Nanos,
    ) -> crate::standing::WatchId {
        self.inner.watch(q, now)
    }

    /// Removes a standing query.
    pub fn unwatch(&mut self, id: crate::standing::WatchId) -> bool {
        self.inner.unwatch(id)
    }

    /// The standing-query engine.
    pub fn standing(&self) -> &crate::standing::StandingQueryEngine {
        self.inner.standing()
    }

    /// Drains standing raise/clear flip events.
    pub fn drain_standing_events(&mut self) -> Vec<crate::standing::StandingEvent> {
        self.inner.drain_standing_events()
    }

    /// The queryable store.
    pub fn tib(&self) -> &TieredTib {
        &self.inner.tib
    }

    /// Mutable store access, for configuring the storage tier (seal
    /// threshold, WAL, eviction) — mirrors `HostAgent`'s public field.
    pub fn tib_mut(&mut self) -> &mut TieredTib {
        &mut self.inner.tib
    }

    /// Trajectory-cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache.stats()
    }

    /// Decode-memo (misses, hits).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.inner.memo.stats()
    }

    /// Packets observed across all shards.
    pub fn packets_seen(&self) -> u64 {
        self.inner.packets_seen
    }

    /// Reconstruction failures (infeasible trajectories seen).
    pub fn recon_failures(&self) -> u64 {
        self.inner.recon_failures
    }

    /// Live (not yet exported) per-path flow records across all shards.
    pub fn live_records(&self) -> usize {
        self.shards.iter().map(|m| m.len()).sum()
    }

    /// Ingests one window of arriving packets, sharded across worker
    /// threads (a single shard runs on the calling thread), then replays
    /// the workers' events in arrival order (see module docs). Equivalent
    /// to calling [`HostAgent::on_packet`] on each `(packet, now)` in
    /// sequence.
    pub fn ingest(&mut self, fabric: &Fabric, pkts: &[(Packet, Nanos)]) {
        if pkts.is_empty() {
            return;
        }
        self.inner.packets_seen += pkts.len() as u64;

        // Phase 1: per-shard ingest. Each worker owns one shard exclusively
        // and only reads the packet window. A lone shard takes the whole
        // window on the calling thread: there is nothing to partition and
        // a spawn + join per window costs more than it could overlap.
        let mut events: Vec<Event> = if let [shard] = self.shards.as_mut_slice() {
            ingest_shard(shard, pkts, 0..pkts.len() as u32)
        } else {
            // Partition arrival indices by flow hash.
            let nshards = self.shards.len();
            let mut work: Vec<Vec<u32>> = vec![Vec::new(); nshards];
            for (i, (pkt, _)) in pkts.iter().enumerate() {
                work[shard_of(&pkt.flow, nshards)].push(i as u32);
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(work.iter())
                    .map(|(shard, idxs)| {
                        s.spawn(move || ingest_shard(shard, pkts, idxs.iter().copied()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("ingest worker panicked"))
                    .collect()
            })
        };

        // Phase 2: ordered replay through the single-writer merge half.
        // (idx, phase) keys are unique: a packet lives on one shard.
        events.sort_unstable_by_key(Event::order);
        let check = self.inner.has_invariants();
        for ev in events {
            match ev {
                Event::FirstSight { idx, key } => {
                    if check {
                        let now = pkts[idx as usize].1;
                        self.inner
                            .on_new_path(fabric, &key.flow, key.dscp_sample, &key.tags, now);
                    }
                }
                Event::Evicted { idx, batch } => {
                    let now = pkts[idx as usize].1;
                    self.inner.finalize_batch(fabric, batch, now);
                }
            }
        }
    }

    /// Periodic tick: idle-evicts every shard and finalizes the merged
    /// batch in canonical order — the same records, in the same order, a
    /// single unsharded memory's `evict_idle` emits.
    pub fn tick(&mut self, fabric: &Fabric, now: Nanos) {
        let mut batch: Vec<PendingRecord> = Vec::new();
        for shard in &mut self.shards {
            batch.extend(shard.evict_idle(now));
        }
        batch.sort_unstable_by(pathdump_tib::canonical_order);
        self.inner.finalize_batch(fabric, batch, now);
    }

    /// Flushes every shard into the TIB (merged canonical order).
    pub fn flush(&mut self, fabric: &Fabric, now: Nanos) {
        let mut batch: Vec<PendingRecord> = Vec::new();
        for shard in &mut self.shards {
            batch.extend(shard.flush(now));
        }
        batch.sort_unstable_by(pathdump_tib::canonical_order);
        self.inner.finalize_batch(fabric, batch, now);
    }

    /// Executes a TIB query; `include_live` folds in the shards' live
    /// records through the same canonical-order view as [`HostAgent`].
    pub fn execute(&mut self, fabric: &Fabric, q: &Query, include_live: bool) -> Response {
        let mut resp = execute_on_tib(&self.inner.tib, q);
        if include_live {
            let snaps = self
                .shards
                .iter()
                .flat_map(|m| m.live_keys().filter_map(|k| m.snapshot(&k)))
                .collect();
            let live = self.inner.live_tib_from(fabric, snaps);
            resp.merge(execute_on_tib(&live, q));
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_total_and_stable() {
        let flows: Vec<FlowId> = (0..512)
            .map(|i| {
                FlowId::tcp(
                    pathdump_topology::Ip(0x0A00_0000 + i),
                    (1024 + i) as u16,
                    pathdump_topology::Ip(0x0A63_0002),
                    80,
                )
            })
            .collect();
        for n in [1usize, 2, 3, 4, 7, 8] {
            let mut seen = vec![0u32; n];
            for f in &flows {
                let s = shard_of(f, n);
                assert!(s < n);
                assert_eq!(s, shard_of(f, n), "stable per flow");
                seen[s] += 1;
            }
            if n > 1 {
                assert!(
                    seen.iter().all(|&c| c > 0),
                    "512 flows spread over {n} shards: {seen:?}"
                );
            }
        }
    }
}
