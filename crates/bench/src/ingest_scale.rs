//! Host-agent ingest scaling benchmark: one packet stream (many flows to
//! one destination host, multipath spraying, FIN-terminated) driven
//! through the single-threaded [`HostAgent`] reference and through
//! [`ShardedAgent`] at a range of worker counts — the `ingest` section of
//! `BENCH_tib.json`.
//!
//! The stream is materialized once and the measured loop is windowed
//! `ingest` + final `flush` only, so the numbers are the agent datapath
//! (trajectory-memory updates, FIN evictions, TIB merge), not packet
//! construction. Every run must produce the same TIB record count — the
//! coarse bit-identity smoke; the fine-grained pin lives in
//! `crates/core/tests/sharded_equivalence.rs`.
//!
//! `workers = 1` runs the shard body inline on the calling thread, so it
//! should match the `workers = 0` reference. `workers >= 2` add a
//! partition pass and a scoped-thread spawn + join per window, which only
//! parallel cores can buy back: a FIN costs the same whatever a shard
//! holds, so smaller shards by themselves gain nothing. The recorded
//! `cpus` field lets readers and the gate interpret the curve;
//! `bench_gate` only gates it when `cpus > 1`.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent, ShardedAgent};
use pathdump_simnet::{Packet, TagPolicy, TcpFlags};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, Path, Peer, PortNo, UpDownRouting,
};
use std::time::Instant;

/// Workload shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct IngestParams {
    /// Fat-tree arity of the fabric the tags come from.
    pub k: u16,
    /// Distinct flows streaming into the agent's host.
    pub flows: usize,
    /// Packets per flow; the last one carries FIN.
    pub pkts_per_flow: usize,
    /// Packets per `ingest` window (the NIC-ring poll batch).
    pub window: usize,
}

impl IngestParams {
    /// The default comparison point recorded in `BENCH_tib.json`.
    pub fn default_shape() -> Self {
        IngestParams {
            k: 4,
            flows: 2048,
            pkts_per_flow: 16,
            window: 512,
        }
    }
}

/// Result of one ingest run.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// `0` = the single-threaded [`HostAgent`] reference.
    pub workers: usize,
    /// Packets ingested.
    pub events: u64,
    /// TIB records after the final flush (identical across runs).
    pub tib_records: usize,
    pub wall_secs: f64,
    pub events_per_sec: f64,
}

/// The prebuilt workload: the fabric model and the packet windows.
pub struct IngestStream {
    pub fabric: Fabric,
    pub dst: HostId,
    windows: Vec<Vec<(Packet, Nanos)>>,
    events: u64,
}

/// Builds the packet a path delivers (tag policy applied hop by hop).
fn pkt_on_path(
    ft: &FatTree,
    policy: &FatTreeCherryPick,
    flow: FlowId,
    path: &Path,
    flags: TcpFlags,
) -> Packet {
    let mut pkt = Packet::data(1, flow, 0, 1460, Nanos::ZERO);
    pkt.flags = flags;
    let topo = ft.topology();
    for (i, &sw) in path.0.iter().enumerate() {
        let in_port = if i == 0 {
            topo.switch(sw)
                .ports
                .iter()
                .position(|p| matches!(p, Peer::Host(_)))
                .map(|p| PortNo(p as u8))
        } else {
            topo.switch(sw).port_towards(path.0[i - 1])
        };
        policy.on_forward(sw, in_port, PortNo(0), &mut pkt.headers);
    }
    pkt
}

/// Materializes the stream once; excluded from all timed regions.
pub fn build_stream(p: IngestParams) -> IngestStream {
    let ft = FatTree::build(FatTreeParams { k: p.k });
    let topo = ft.topology();
    let n = topo.num_hosts() as u32;
    let dst = ft.host(1, 0, 0);
    let policy = FatTreeCherryPick::new(ft.clone());

    // Per-flow source hosts and path sets; flows interleave round-robin so
    // every window mixes flows (the realistic shard-spread shape).
    let flows: Vec<(FlowId, Vec<Path>)> = (0..p.flows)
        .map(|i| {
            let mut src = HostId(i as u32 % n);
            if src == dst {
                src = HostId((src.0 + 1) % n);
            }
            let flow = FlowId::tcp(
                topo.host(src).ip,
                1024 + (i % 60000) as u16,
                topo.host(dst).ip,
                80,
            );
            (flow, ft.all_paths(src, dst))
        })
        .collect();

    let total = p.flows * p.pkts_per_flow;
    let mut pkts: Vec<(Packet, Nanos)> = Vec::with_capacity(total);
    for seq in 0..p.pkts_per_flow {
        for (i, (flow, paths)) in flows.iter().enumerate() {
            // Deterministic spray over the flow's path set.
            let path = &paths[(i * 31 + seq * 7) % paths.len()];
            let flags = if seq + 1 == p.pkts_per_flow {
                TcpFlags::FIN
            } else {
                TcpFlags(0)
            };
            let t = Nanos::from_millis((pkts.len() + 1) as u64 / 64 + 1);
            pkts.push((pkt_on_path(&ft, &policy, *flow, path, flags), t));
        }
    }
    let windows = pkts.chunks(p.window.max(1)).map(<[_]>::to_vec).collect();
    IngestStream {
        fabric: Fabric::FatTree(FatTreeReconstructor::new(ft)),
        dst,
        windows,
        events: total as u64,
    }
}

/// Drives the prebuilt stream through the agent once. `workers == 0` runs
/// the single-threaded [`HostAgent`] per-packet reference; `workers >= 1`
/// runs [`ShardedAgent::ingest`] per window. Only ingest + final flush
/// are timed.
pub fn run_ingest(stream: &IngestStream, workers: usize) -> IngestResult {
    let cfg = AgentConfig::default();
    let end = Nanos::from_secs(3600);
    let (wall, tib_records) = if workers == 0 {
        let mut agent = HostAgent::new(stream.dst, cfg);
        let start = Instant::now();
        for window in &stream.windows {
            for (pkt, now) in window {
                agent.on_packet(&stream.fabric, pkt, *now);
            }
        }
        agent.flush(&stream.fabric, end);
        (start.elapsed().as_secs_f64(), agent.tib.len())
    } else {
        let mut agent = ShardedAgent::new(stream.dst, cfg, workers);
        let start = Instant::now();
        for window in &stream.windows {
            agent.ingest(&stream.fabric, window);
        }
        agent.flush(&stream.fabric, end);
        (start.elapsed().as_secs_f64(), agent.tib().len())
    };
    IngestResult {
        workers,
        events: stream.events,
        tib_records,
        wall_secs: wall,
        events_per_sec: stream.events as f64 / wall.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench workload must be worker-invariant: every worker count
    /// (and the single-threaded reference) files the same record count.
    #[test]
    fn ingest_workload_worker_invariant() {
        let stream = build_stream(IngestParams {
            k: 4,
            flows: 96,
            pkts_per_flow: 5,
            window: 32,
        });
        let reference = run_ingest(&stream, 0);
        assert!(reference.tib_records > 0);
        assert_eq!(reference.events, 96 * 5);
        for workers in [1usize, 2, 4] {
            let r = run_ingest(&stream, workers);
            assert_eq!(r.tib_records, reference.tib_records, "workers={workers}");
            assert_eq!(r.events, reference.events);
        }
    }
}
