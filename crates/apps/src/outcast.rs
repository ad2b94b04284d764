//! TCP outcast diagnosis (§4.6, Figure 10).
//!
//! Fifteen senders target one receiver: one flow enters the destination
//! ToR on a 2-hop path, fourteen arrive through the fabric on another
//! input port. Taildrop port blackout penalizes the port with *fewer*
//! flows — the close sender loses most throughput (the outcast).
//!
//! The diagnosis is edge-driven: once the controller sees enough
//! `POOR_PERF` alarms naming one receiver, it pulls per-flow byte counts
//! and paths from that receiver's TIB, computes per-sender throughput,
//! builds the fan-in tree, and matches the outcast profile (the flow with
//! the shortest path is the most penalized).

use pathdump_core::{Alarm, PathDumpWorld, Query, Reason, Response};
use pathdump_rpc::execute;
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, TimeRange};
use std::collections::HashMap;

/// Per-flow evidence gathered from the receiver TIB.
#[derive(Clone, Debug)]
pub struct FlowEvidence {
    /// The flow.
    pub flow: FlowId,
    /// Bytes recorded at the receiver.
    pub bytes: u64,
    /// Throughput over the observation window, bits/s.
    pub throughput_bps: f64,
    /// Paths taken (fan-in tree edges).
    pub paths: Vec<Path>,
    /// Shortest observed path length in paper hops.
    pub hops: usize,
}

/// The diagnosis output.
#[derive(Clone, Debug)]
pub struct OutcastReport {
    /// The receiver under investigation.
    pub receiver: Ip,
    /// Per-flow evidence, sorted by ascending throughput.
    pub flows: Vec<FlowEvidence>,
    /// The outcast verdict: the most-penalized flow is also the
    /// closest one.
    pub is_outcast: bool,
    /// Ratio of best to worst throughput (the unfairness magnitude).
    pub unfairness: f64,
}

/// Returns the destination IP named by at least `min_alarms` `POOR_PERF`
/// alarms from distinct sources, if any — the trigger condition ("a
/// minimum of 10 alerts from different sources to a particular
/// destination").
pub fn alarm_hotspot(alarms: &[Alarm], min_alarms: usize) -> Option<Ip> {
    let mut by_dst: HashMap<Ip, std::collections::HashSet<Ip>> = HashMap::new();
    for a in alarms {
        if a.reason == Reason::PoorPerf {
            by_dst
                .entry(a.flow.dst_ip)
                .or_default()
                .insert(a.flow.src_ip);
        }
    }
    by_dst
        .into_iter()
        .filter(|(_, srcs)| srcs.len() >= min_alarms)
        .max_by_key(|(_, srcs)| srcs.len())
        .map(|(dst, _)| dst)
}

/// Runs the diagnosis against the receiver's TIB for the given window.
pub fn diagnose(
    world: &mut PathDumpWorld,
    receiver: Ip,
    flows: &[FlowId],
    window: (Nanos, Nanos),
) -> OutcastReport {
    let Some(dst_host) = world.fabric.topology().host_by_ip(receiver) else {
        return OutcastReport {
            receiver,
            flows: Vec::new(),
            is_outcast: false,
            unfairness: 1.0,
        };
    };
    let range = TimeRange::between(window.0, window.1);
    let dur_s = (window.1.saturating_sub(window.0)).as_secs_f64().max(1e-9);
    let mut evidence = Vec::new();
    for &flow in flows {
        let q = Query::GetCount {
            flow,
            path: None,
            range,
        };
        let bytes = match execute(world, &[dst_host], &q, true).response {
            Response::Count { bytes, .. } => bytes,
            _ => 0,
        };
        let q = Query::GetPaths {
            flow,
            link: LinkPattern::ANY,
            range,
        };
        let paths = match execute(world, &[dst_host], &q, true).response {
            Response::Paths(p) => p,
            _ => Vec::new(),
        };
        let hops = paths
            .iter()
            .map(|p| p.num_hops())
            .min()
            .unwrap_or(usize::MAX);
        evidence.push(FlowEvidence {
            flow,
            bytes,
            throughput_bps: bytes as f64 * 8.0 / dur_s,
            paths,
            hops,
        });
    }
    evidence.sort_by(|a, b| {
        a.throughput_bps
            .partial_cmp(&b.throughput_bps)
            .expect("throughputs are finite")
    });
    let worst = evidence.first();
    let min_hops = evidence.iter().map(|e| e.hops).min().unwrap_or(0);
    let is_outcast = worst.is_some_and(|w| w.hops == min_hops)
        && evidence.len() >= 2
        && evidence.last().expect("len >= 2").throughput_bps
            > 1.3 * evidence[0].throughput_bps.max(1.0);
    let unfairness = if evidence.is_empty() {
        1.0
    } else {
        evidence.last().expect("non-empty").throughput_bps / evidence[0].throughput_bps.max(1.0)
    };
    OutcastReport {
        receiver,
        flows: evidence,
        is_outcast,
        unfairness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Testbed;
    use pathdump_core::WorldConfig;
    use pathdump_simnet::SimConfig;
    use pathdump_topology::HostId;

    #[test]
    fn hotspot_requires_distinct_sources() {
        let mk = |src: u32, dst: u32| Alarm {
            flow: FlowId::tcp(Ip(src), 1, Ip(dst), 2),
            reason: Reason::PoorPerf,
            paths: vec![],
            host: HostId(0),
            at: Nanos::ZERO,
        };
        let alarms: Vec<Alarm> = (0..5).map(|s| mk(s, 99)).collect();
        assert_eq!(alarm_hotspot(&alarms, 5), Some(Ip(99)));
        assert_eq!(alarm_hotspot(&alarms, 6), None);
        // Repeated alarms from one source count once.
        let dup: Vec<Alarm> = (0..5).map(|_| mk(1, 50)).collect();
        assert_eq!(alarm_hotspot(&dup, 2), None);
    }

    /// Small-scale Figure 10: 7 senders (1 close, 6 far) into one
    /// receiver; the close flow is the most penalized and the profile
    /// matches outcast.
    #[test]
    fn outcast_scenario_detected() {
        let mut cfg = SimConfig::for_tests();
        // Small buffers accentuate port blackout.
        cfg.fabric_link.queue_pkts = 16;
        let mut tb = Testbed::fattree(4, cfg, WorldConfig::default());
        let receiver = tb.ft.host(0, 0, 0);
        // Close sender: same ToR (2-hop path).
        let close = tb.ft.host(0, 0, 1);
        // Far senders: other pods (6-hop paths) — they enter ToR(0,0)
        // through its aggregate-facing ports.
        let far: Vec<HostId> = vec![
            tb.ft.host(1, 0, 0),
            tb.ft.host(1, 1, 0),
            tb.ft.host(2, 0, 0),
            tb.ft.host(2, 1, 0),
            tb.ft.host(3, 0, 0),
            tb.ft.host(3, 1, 0),
        ];
        let mut flows = Vec::new();
        // Large enough that no flow completes inside the window: the
        // throughput differences then reflect sustained contention.
        let size = 60_000_000u64;
        flows.push(tb.flow(close, receiver, 5000));
        tb.add_flow(close, receiver, 5000, size, Nanos::ZERO);
        for (i, &src) in far.iter().enumerate() {
            let sport = 5001 + i as u16;
            flows.push(tb.flow(src, receiver, sport));
            tb.add_flow(src, receiver, sport, size, Nanos::ZERO);
        }
        let window = (Nanos::ZERO, Nanos::from_secs(10));
        tb.sim.run_until(window.1);
        let rip = tb.ip_of(receiver);
        let report = diagnose(&mut tb.sim.world, rip, &flows, window);
        assert_eq!(report.flows.len(), 7);
        assert!(
            report.unfairness > 1.2,
            "contention must create unfairness: {:.2}",
            report.unfairness
        );
        assert!(
            report.flows.iter().all(|e| e.bytes > 0),
            "every sender made some progress"
        );
        // Paths recorded: close flow has a 2-hop path, far flows 6-hop.
        let close_ev = report
            .flows
            .iter()
            .find(|e| e.flow.src_port == 5000)
            .unwrap();
        assert_eq!(close_ev.hops, 2);
        assert!(report
            .flows
            .iter()
            .filter(|e| e.flow.src_port != 5000)
            .all(|e| e.hops == 6));
    }
}
