//! Traffic measurement applications (§2.3): top-k flows, heavy hitters,
//! traffic matrix, congested-link diagnosis, per-link utilization, DDoS
//! source diagnosis — all thin compositions over the Host/Controller API.

use pathdump_core::{PathDumpWorld, Query, Response, TibRead};
use pathdump_rpc::execute;
use pathdump_topology::{FlowId, HostId, Ip, LinkDir, LinkPattern, TimeRange};
use std::collections::HashMap;

/// Top-k flows by bytes across the given hosts (the §2.3 heapq query,
/// distributed).
pub fn top_k_flows(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    k: u32,
    range: TimeRange,
) -> Vec<(u64, FlowId)> {
    match execute(world, hosts, &Query::TopK { k, range }, false).response {
        Response::TopK { entries, .. } => entries,
        _ => unreachable!("TopK returns TopK"),
    }
}

/// Flows exceeding `min_bytes` across the given hosts.
pub fn heavy_hitters(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    min_bytes: u64,
    range: TimeRange,
) -> Vec<FlowId> {
    let q = Query::HeavyHitters { min_bytes, range };
    match execute(world, hosts, &q, false).response {
        Response::Flows(f) => f,
        _ => unreachable!("HeavyHitters returns Flows"),
    }
}

/// (srcIP, dstIP) → bytes traffic matrix across the given hosts.
pub fn traffic_matrix(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    range: TimeRange,
) -> Vec<((Ip, Ip), u64)> {
    match execute(world, hosts, &Query::TrafficMatrix { range }, false).response {
        Response::Matrix(m) => m,
        _ => unreachable!("TrafficMatrix returns Matrix"),
    }
}

/// Per-directed-link byte totals reconstructed purely from TIB records —
/// the switch-pair traffic matrix / link utilization view (Table 2's
/// "traffic volume between all switch pairs").
pub fn link_utilization(world: &PathDumpWorld, range: TimeRange) -> HashMap<LinkDir, u64> {
    let mut out: HashMap<LinkDir, u64> = HashMap::new();
    for agent in &world.agents {
        agent.tib.for_each_record(&mut |rec| {
            if !rec.overlaps(&range) {
                return;
            }
            for link in rec.path.links() {
                *out.entry(link).or_insert(0) += rec.bytes;
            }
        });
    }
    out
}

/// Congested-link diagnosis (Table 2): the flows crossing `link` in the
/// window, largest first — "find flows using a congested link, to help
/// rerouting".
pub fn flows_on_link(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    link: LinkDir,
    range: TimeRange,
) -> Vec<(u64, FlowId)> {
    let q = Query::GetFlows {
        link: LinkPattern::exact(link.from, link.to),
        range,
    };
    let flows = match execute(world, hosts, &q, false).response {
        Response::Flows(f) => f,
        _ => unreachable!(),
    };
    let mut with_bytes: Vec<(u64, FlowId)> = flows
        .into_iter()
        .map(|flow| {
            let q = Query::GetCount {
                flow,
                path: None,
                range,
            };
            let bytes = match execute(world, hosts, &q, false).response {
                Response::Count { bytes, .. } => bytes,
                _ => 0,
            };
            (bytes, flow)
        })
        .collect();
    with_bytes.sort_by(|a, b| b.cmp(a));
    with_bytes
}

/// DDoS diagnosis (Table 2): source IPs sending to `victim`, with byte
/// totals, largest first.
pub fn ddos_sources(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    victim: Ip,
    range: TimeRange,
) -> Vec<(Ip, u64)> {
    let matrix = traffic_matrix(world, hosts, range);
    let mut sources: Vec<(Ip, u64)> = matrix
        .into_iter()
        .filter(|((_, dst), _)| *dst == victim)
        .map(|((src, _), bytes)| (src, bytes))
        .collect();
    sources.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
    sources
}

/// Isolation check (Table 2): returns the flows between two host groups —
/// non-empty means the groups talked ("check if hosts are allowed to
/// talk").
pub fn isolation_violations(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    group_a: &[Ip],
    group_b: &[Ip],
    range: TimeRange,
) -> Vec<FlowId> {
    let q = Query::GetFlows {
        link: LinkPattern::ANY,
        range,
    };
    let flows = match execute(world, hosts, &q, false).response {
        Response::Flows(f) => f,
        _ => unreachable!(),
    };
    flows
        .into_iter()
        .filter(|f| {
            (group_a.contains(&f.src_ip) && group_b.contains(&f.dst_ip))
                || (group_b.contains(&f.src_ip) && group_a.contains(&f.dst_ip))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Testbed;
    use pathdump_topology::Nanos;

    fn loaded_testbed() -> (Testbed, Vec<(HostId, HostId, u16, u64)>) {
        let mut tb = Testbed::default_k4();
        let flows = vec![
            (
                tb.ft.host(0, 0, 0),
                tb.ft.host(1, 0, 0),
                6000u16,
                500_000u64,
            ),
            (tb.ft.host(0, 0, 1), tb.ft.host(2, 0, 0), 6001, 200_000),
            (tb.ft.host(0, 1, 0), tb.ft.host(3, 0, 0), 6002, 50_000),
            (tb.ft.host(1, 0, 0), tb.ft.host(2, 1, 1), 6003, 800_000),
        ];
        for &(s, d, p, sz) in &flows {
            tb.add_flow(s, d, p, sz, Nanos::ZERO);
        }
        tb.run_and_flush(Nanos::from_secs(60));
        assert!(tb.sim.world.tcp.all_complete());
        (tb, flows)
    }

    fn all_hosts() -> Vec<HostId> {
        (0..16).map(HostId).collect()
    }

    #[test]
    fn top_k_orders_by_bytes() {
        let (mut tb, flows) = loaded_testbed();
        let top = top_k_flows(&mut tb.sim.world, &all_hosts(), 3, TimeRange::ANY);
        assert_eq!(top.len(), 3);
        // Largest flow (800KB, sport 6003) first.
        assert_eq!(top[0].1.src_port, flows[3].2);
        assert!(top[0].0 >= top[1].0 && top[1].0 >= top[2].0);
    }

    #[test]
    fn heavy_hitters_threshold() {
        let (mut tb, _) = loaded_testbed();
        let hh = heavy_hitters(&mut tb.sim.world, &all_hosts(), 400_000, TimeRange::ANY);
        // Data flows above 400KB (wire bytes exceed payload): 6000, 6003.
        let sports: Vec<u16> = hh.iter().map(|f| f.src_port).collect();
        assert!(sports.contains(&6000));
        assert!(sports.contains(&6003));
        assert!(!sports.contains(&6002));
    }

    #[test]
    fn traffic_matrix_covers_pairs() {
        let (mut tb, flows) = loaded_testbed();
        let m = traffic_matrix(&mut tb.sim.world, &all_hosts(), TimeRange::ANY);
        for &(s, d, _, sz) in &flows {
            let (si, di) = (tb.ip_of(s), tb.ip_of(d));
            let cell = m
                .iter()
                .find(|((a, b), _)| *a == si && *b == di)
                .unwrap_or_else(|| panic!("missing matrix cell {si}->{di}"));
            assert!(cell.1 >= sz, "cell bytes cover the payload");
        }
    }

    #[test]
    fn link_utilization_consistent_with_counters() {
        let (tb, _) = loaded_testbed();
        let util = link_utilization(&tb.sim.world, TimeRange::ANY);
        assert!(!util.is_empty());
        // Every recorded link must be a real adjacent pair.
        for link in util.keys() {
            assert!(tb.adjacent(link.from, link.to), "{link} not in topology");
        }
    }

    #[test]
    fn congested_link_flows() {
        let (mut tb, _) = loaded_testbed();
        let util = link_utilization(&tb.sim.world, TimeRange::ANY);
        let (&busiest, _) = util.iter().max_by_key(|(_, b)| **b).unwrap();
        let flows = flows_on_link(&mut tb.sim.world, &all_hosts(), busiest, TimeRange::ANY);
        assert!(!flows.is_empty());
        assert!(flows.windows(2).all(|w| w[0].0 >= w[1].0), "sorted desc");
    }

    #[test]
    fn ddos_sources_ranked() {
        let mut tb = Testbed::default_k4();
        let victim = tb.ft.host(3, 1, 1);
        for (i, &(p, t, h)) in [(0usize, 0usize, 0usize), (0, 0, 1), (1, 0, 0), (2, 1, 0)]
            .iter()
            .enumerate()
        {
            let src = tb.ft.host(p, t, h);
            tb.add_flow(
                src,
                victim,
                7000 + i as u16,
                100_000 + i as u64 * 50_000,
                Nanos::ZERO,
            );
        }
        tb.run_and_flush(Nanos::from_secs(60));
        let vip = tb.ip_of(victim);
        let sources = ddos_sources(&mut tb.sim.world, &all_hosts(), vip, TimeRange::ANY);
        assert_eq!(sources.len(), 4, "all four attackers identified");
        assert!(sources.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn isolation_check() {
        let (mut tb, _) = loaded_testbed();
        let a = vec![tb.ip_of(tb.ft.host(0, 0, 0))];
        let b = vec![tb.ip_of(tb.ft.host(1, 0, 0))];
        let c = vec![tb.ip_of(tb.ft.host(3, 1, 0))];
        let viol = isolation_violations(&mut tb.sim.world, &all_hosts(), &a, &b, TimeRange::ANY);
        assert!(!viol.is_empty(), "groups talked: must be flagged");
        let viol = isolation_violations(&mut tb.sim.world, &all_hosts(), &a, &c, TimeRange::ANY);
        assert!(viol.is_empty(), "no traffic between these groups");
    }
}
