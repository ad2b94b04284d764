//! Host-agent ingest benchmark: one packet stream (many flows to one
//! destination host, multipath spraying, FIN-terminated) driven through
//! [`HostAgent`] — the `ingest` section of `BENCH_tib.json`.
//!
//! The stream is materialized once and the measured loop is `on_packet`
//! per packet + final `flush` only, so the number is the agent datapath
//! (trajectory-memory updates, FIN evictions, decode, TIB insert), not
//! packet construction. `bench_gate` drift-bands the rate on every
//! runner.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent};
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
}

impl IngestParams {
    /// The default comparison point recorded in `BENCH_tib.json`.
    pub fn default_shape() -> Self {
        IngestParams {
            k: 4,
            flows: 2048,
            pkts_per_flow: 16,
        }
    }
}

/// Result of one ingest run.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// Packets ingested.
    pub events: u64,
    /// TIB records after the final flush (identical across runs).
    pub tib_records: usize,
    pub wall_secs: f64,
    pub events_per_sec: f64,
}

/// The prebuilt workload: the fabric model and the packets in arrival
/// order.
pub struct IngestStream {
    pub fabric: Fabric,
    pub dst: HostId,
    pkts: Vec<(Packet, Nanos)>,
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

    // Per-flow source hosts and path sets; flows interleave round-robin,
    // so every flow stays live until its FIN in the last round.
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
    IngestStream {
        fabric: Fabric::FatTree(FatTreeReconstructor::new(ft)),
        dst,
        pkts,
    }
}

/// Drives the prebuilt stream through a fresh [`HostAgent`] once. Only
/// ingest + final flush are timed.
pub fn run_ingest(stream: &IngestStream) -> IngestResult {
    let mut agent = HostAgent::new(stream.dst, AgentConfig::default());
    let start = Instant::now();
    for (pkt, now) in &stream.pkts {
        agent.on_packet(&stream.fabric, pkt, *now);
    }
    agent.flush(&stream.fabric, Nanos::from_secs(3600));
    let wall = start.elapsed().as_secs_f64();
    let events = stream.pkts.len() as u64;
    IngestResult {
        events,
        tib_records: agent.tib.len(),
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench workload is deterministic: every run files the same
    /// record count, one record per (flow, path) pair the spray touched.
    #[test]
    fn ingest_workload_is_deterministic() {
        let stream = build_stream(IngestParams {
            k: 4,
            flows: 96,
            pkts_per_flow: 5,
        });
        let first = run_ingest(&stream);
        assert!(first.tib_records >= 96, "at least one record per flow");
        assert_eq!(first.events, 96 * 5);
        assert_eq!(run_ingest(&stream).tib_records, first.tib_records);
    }
}
