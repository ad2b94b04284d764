//! End-to-end debugging scenarios at k=8: the silent-drop, routing-loop
//! and load-imbalance applications from `pathdump_apps` and the host
//! agents' TIB queries must reach their verdicts (localized links,
//! detected loops, per-link flow-size splits) — and each whole verdict,
//! `SimStats` included, must equal the one recorded in the simulator's
//! golden file, which the two-engine simulator wrote.
//!
//! Plus a k=16 scale check: a paper-scale fabric (320 switches, 1024
//! hosts) completes end-to-end.

use pathdump_apps::load_imbalance::flow_size_distributions;
use pathdump_apps::routing_loop::{install_loop, run_loop_experiment};
use pathdump_apps::silent_drops::{score, SilentDropLocalizer};
use pathdump_apps::Testbed;
use pathdump_core::{TibRead, WorldConfig};
use pathdump_simnet::{FaultState, NoTagging, Packet, SimConfig, Simulator, SinkWorld};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, FnvHasher, HostId, LinkDir, LinkPattern, Nanos, TimeRange,
    UpDownRouting,
};
use std::hash::Hasher;

fn k8() -> Testbed {
    Testbed::fattree(8, SimConfig::for_tests(), WorldConfig::default())
}

/// Checks a scenario's whole verdict against the `k8.` line recorded in
/// the simulator's golden file (its header says who wrote it): a 64-bit
/// FNV digest of the verdict's `Debug` rendering. A deliberate change
/// pastes the computed digest from the failure message into the file.
fn assert_golden(key: &str, verdict: &impl std::fmt::Debug) {
    let golden = include_str!("../crates/simnet/tests/data/golden_digests.txt");
    let recorded = golden
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '));
    let mut h = FnvHasher::default();
    h.write(format!("{verdict:?}").as_bytes());
    let computed = format!("{:016x}", h.finish());
    assert_eq!(
        Some(computed.as_str()),
        recorded,
        "{key}: verdict differs from the recorded one"
    );
}

/// §4.3 at k=8: MAX-COVERAGE localization of a silently dropping
/// interface from edge alarms; the hypothesis, the signature count and
/// the fabric stats are the recorded ones.
#[test]
fn silent_drop_localization_k8() {
    let mut tb = k8();
    // Faulty interface: Agg(0,0) -> ToR(0,1), 45% silent drops — high
    // enough to trip the consecutive-retransmission monitor, below
    // 100% so victim paths still reach the destination TIBs.
    let faulty = LinkDir::new(tb.ft.agg(0, 0), tb.ft.tor(0, 1));
    tb.sim.set_directed_fault(
        faulty.from,
        faulty.to,
        FaultState {
            silent_drop_rate: 0.45,
            ..FaultState::HEALTHY
        },
    );
    // Long-lived flows into rack (0,1) from every remote pod (k=8 has
    // four aggregate positions, so enough flows are needed for ECMP to
    // hash several across the faulty aggregate), staggered to keep
    // congestion noise low.
    let mut sport = 7000;
    for spod in 1usize..8 {
        for t in 0..2 {
            let src = tb.ft.host(spod, t, 0);
            for hdst in 0..2 {
                let dst = tb.ft.host(0, 1, hdst);
                let start = Nanos::from_millis(50 * (sport - 7000) as u64);
                tb.add_flow(src, dst, sport, 600_000, start);
                sport += 1;
            }
        }
    }
    let mut app = SilentDropLocalizer::new();
    for step in 1..=150u64 {
        let t = Nanos::from_millis(200 * step);
        tb.sim.run_until(t);
        app.process_alarms(&mut tb.sim.world, t, Nanos::ZERO);
    }
    assert!(
        !app.coverage.is_empty(),
        "retransmitting flows must produce signatures"
    );
    let hyp = app.localize();
    let acc = score(&hyp, &[faulty]);
    assert!(
        acc.recall >= 1.0,
        "faulty link must be in the hypothesis: {hyp:?}"
    );
    assert_golden("k8.silent_drop", &(hyp, app.coverage.len(), &tb.sim.stats));
}

/// §4.5 at k=8: a 4-switch loop across two pods and the core, trapped by
/// the controller in punt time. The verdict (switch, repeated link, visit
/// count, detection time, punt count) is the recorded one.
#[test]
fn routing_loop_detection_k8() {
    let mut tb = k8();
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    let flow = tb.flow(src, dst, 8800);
    let cycle = [
        tb.ft.agg(0, 0),
        tb.ft.core(0),
        tb.ft.agg(1, 0),
        tb.ft.core(1),
    ];
    let entry = tb.ft.tor(0, 0);
    install_loop(&mut tb, flow, entry, &cycle);
    let out = run_loop_experiment(&mut tb, flow, Nanos::from_secs(3));
    let det = out
        .detection
        .unwrap_or_else(|| panic!("loop must be detected"));
    assert!(det.visits <= 2, "small loop within 2 visits");
    assert_golden(
        "k8.routing_loop",
        &(
            det.punt_switch,
            det.repeated_link_id,
            det.visits,
            det.at,
            out.punts,
            &tb.sim.stats,
        ),
    );
}

/// §4.2 at k=8: the size-based ECMP misconfiguration splits flows at the
/// 100 KB boundary; the per-link flow-size distributions recovered from
/// the TIBs must show the sharp split, bin for bin as recorded.
#[test]
fn load_imbalance_fsd_k8() {
    use pathdump_simnet::Quirk;
    let mut tb = k8();
    let tor = tb.ft.tor(0, 0);
    let link1 = LinkDir::new(tor, tb.ft.agg(0, 0)); // big flows
    let link2 = LinkDir::new(tor, tb.ft.agg(0, 1)); // small flows
    tb.sim.install_quirk(
        tor,
        Quirk::SizeBasedSplit {
            threshold: 100_000,
            big_port: tb.sim.link_port(tor, tb.ft.agg(0, 0)),
            small_port: tb.sim.link_port(tor, tb.ft.agg(0, 1)),
        },
    );
    for (i, &size) in [20_000u64, 50_000, 80_000, 150_000, 300_000, 500_000]
        .iter()
        .enumerate()
    {
        let src = tb.ft.host(0, 0, i % 4);
        let dst = tb.ft.host(1 + i % 3, i % 4, i / 3);
        tb.add_flow(src, dst, 6000 + i as u16, size, Nanos::ZERO);
    }
    tb.run_and_flush(Nanos::from_secs(45));
    assert!(tb.sim.world.tcp.all_complete(), "all flows must finish");
    let hosts: Vec<HostId> = (0..tb.ft.topology().num_hosts() as u32)
        .map(HostId)
        .collect();
    let dists = flow_size_distributions(
        &mut tb.sim.world,
        &hosts,
        &[link1, link2],
        TimeRange::ANY,
        10_000,
    );
    let (big, small) = (&dists[0], &dists[1]);
    assert_eq!(big.total_flows(), 3, "three large flows");
    assert_eq!(small.total_flows(), 3, "three small flows");
    assert_eq!(big.flows_at_least(100_000), 3);
    assert_eq!(small.flows_at_least(100_000), 0);
    assert_golden("k8.load_imbalance", &(dists, &tb.sim.stats));
}

/// The zero-copy ingest pin: `HostAgent`s fed by a k=8 fabric must end up
/// with the recorded per-host TIBs. The agents run the borrowed-key
/// trajectory-memory probe and the memoized decode under the trajectory
/// cache, so this checks the whole ingest path — per-flow `get_paths` at
/// the receiving agent, `top_k_flows` on every involved host, and the
/// cache/memo hit statistics.
#[test]
fn host_agent_tib_queries_k8() {
    type HostSnapshot = (
        HostId,
        Vec<Vec<pathdump_topology::Path>>,
        Vec<(u64, FlowId)>,
        (u64, u64),
        (u64, u64),
    );
    let mut tb = k8();
    // Cross-pod mix into a handful of racks: several flows share each
    // destination so ECMP produces multi-path record sets, and sizes
    // differ so top-k has a real ordering to get wrong.
    let mut flows = Vec::new();
    let mut sport = 9000u16;
    for spod in 0..4usize {
        for dpod in 4..7usize {
            let src = tb.ft.host(spod, spod % 4, dpod % 4);
            let dst = tb.ft.host(dpod, spod % 4, (spod + dpod) % 4);
            let size = 30_000 + 20_000 * ((sport - 9000) as u64 % 5);
            let start = Nanos::from_millis(3 * (sport - 9000) as u64);
            tb.add_flow(src, dst, sport, size, start);
            flows.push((src, dst, tb.flow(src, dst, sport)));
            sport += 1;
        }
    }
    tb.run_and_flush(Nanos::from_secs(30));
    assert!(tb.sim.world.tcp.all_complete(), "all flows must finish");
    let mut hosts: Vec<HostId> = flows.iter().flat_map(|&(s, d, _)| [s, d]).collect();
    hosts.sort_unstable_by_key(|h| h.0);
    hosts.dedup();
    let snapshot: Vec<HostSnapshot> = hosts
        .iter()
        .map(|&h| {
            let agent = &tb.sim.world.agents[h.0 as usize];
            let paths: Vec<Vec<pathdump_topology::Path>> = flows
                .iter()
                .filter(|&&(_, d, _)| d == h)
                .map(|(_, _, f)| agent.tib.get_paths(*f, LinkPattern::ANY, TimeRange::ANY))
                .collect();
            (
                h,
                paths,
                agent.tib.top_k_flows(5, TimeRange::ANY),
                agent.cache.stats(),
                agent.memo.stats(),
            )
        })
        .collect();
    // The new ingest path must actually be exercised: receiving agents
    // decode through the cache/memo stack.
    assert!(
        snapshot.iter().any(|(_, _, _, (h, m), _)| h + m > 0),
        "no agent performed trajectory construction"
    );
    assert_golden("k8.host_agent_tib", &snapshot);
}

/// Scale check: a k=16 fat-tree (320 switches, 1024 hosts) completes an
/// all-pods workload end-to-end, delivering every packet that a healthy
/// fabric should.
#[test]
fn k16_fabric_completes() {
    let ft = FatTree::build(FatTreeParams { k: 16 });
    let mut cfg = SimConfig::for_tests();
    cfg.collect_drop_log = false;
    let mut sim = Simulator::new(&ft, cfg, Box::new(NoTagging), SinkWorld);
    let topo = ft.topology().clone();
    let hosts = topo.num_hosts();
    assert_eq!(hosts, 1024);
    // Every host sends 2 packets to a host in another pod.
    let mut sent = 0u64;
    for h in 0..hosts as u32 {
        let src = HostId(h);
        let dst = HostId((h + (hosts / 16) as u32) % hosts as u32);
        let f = FlowId::tcp(
            topo.host(src).ip,
            2000 + (h % 500) as u16,
            topo.host(dst).ip,
            80,
        );
        for _ in 0..2 {
            sim.send_from(src, Packet::data(0, f, 0, 1000, sim.now()));
            sent += 1;
        }
    }
    sim.run_to_completion(Nanos::from_secs(5));
    assert_eq!(sim.pending_events(), 0, "fabric must drain");
    assert_eq!(sim.stats.injected_pkts, sent);
    assert_eq!(
        sim.stats.delivered_pkts + sim.stats.total_actual_drops(),
        sent,
        "every packet is delivered or accounted as a drop"
    );
    assert!(
        sim.stats.delivered_pkts >= sent * 9 / 10,
        "healthy fabric delivers (queue drops only): {}/{}",
        sim.stats.delivered_pkts,
        sent
    );
}
