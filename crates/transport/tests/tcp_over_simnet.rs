//! Transport integration tests: the TCP engine over the simulated fabric.

use pathdump_simnet::{FaultState, NoTagging, SimConfig, Simulator};
use pathdump_topology::{FatTree, FatTreeParams, FlowId, Nanos, UpDownRouting};
use pathdump_transport::{install_flows, FlowSpec, TcpConfig, TcpEngine, TcpWorld};

fn ft4() -> FatTree {
    FatTree::build(FatTreeParams { k: 4 })
}

fn sim(ft: &FatTree) -> Simulator<TcpWorld> {
    Simulator::new(
        ft,
        SimConfig::for_tests(),
        Box::new(NoTagging),
        TcpWorld::new(TcpEngine::new(TcpConfig::default())),
    )
}

fn spec(
    ft: &FatTree,
    src: (usize, usize, usize),
    dst: (usize, usize, usize),
    sport: u16,
    size: u64,
) -> FlowSpec {
    let s = ft.host(src.0, src.1, src.2);
    let d = ft.host(dst.0, dst.1, dst.2);
    let t = ft.topology();
    FlowSpec {
        flow: FlowId::tcp(t.host(s).ip, sport, t.host(d).ip, 80),
        src: s,
        dst: d,
        size,
        start: Nanos::ZERO,
    }
}

#[test]
fn single_flow_completes_cleanly() {
    let ft = ft4();
    let mut s = sim(&ft);
    let sp = spec(&ft, (0, 0, 0), (2, 1, 1), 5000, 1_000_000);
    install_flows(&mut s, &[sp], |w| &mut w.engine);
    s.run_until(Nanos::from_secs(30));
    let r = s.world.engine.report(0);
    assert!(r.completed_at.is_some(), "flow must complete");
    assert_eq!(r.acked, 1_000_000);
    assert_eq!(r.received, 1_000_000, "receiver saw every byte in order");
    assert_eq!(r.retrans_total, 0, "healthy fabric: no retransmissions");
    // 1 MB at 100 Mb/s is at least 80 ms; sanity-check FCT ordering.
    let fct = r.fct().unwrap();
    assert!(fct >= Nanos::from_millis(80), "FCT {fct} too fast");
    assert!(fct < Nanos::from_secs(5), "FCT {fct} too slow");
    // FIN reached the receiver.
    assert!(s.world.engine.flow(0).receiver.fin_seen);
}

#[test]
fn many_flows_all_complete_with_conservation() {
    let ft = ft4();
    let mut s = sim(&ft);
    let mut specs = Vec::new();
    let mut sport = 6000;
    for p in 0..4 {
        for t in 0..2 {
            let src = (p, t, 0);
            let dst = ((p + 1) % 4, t, 1);
            specs.push(spec(&ft, src, dst, sport, 200_000 + (sport as u64) * 10));
            sport += 1;
        }
    }
    install_flows(&mut s, &specs, |w| &mut w.engine);
    s.run_until(Nanos::from_secs(60));
    assert!(s.world.engine.all_complete());
    for r in s.world.engine.reports() {
        assert_eq!(r.acked, r.size);
        assert_eq!(r.received, r.size);
    }
}

#[test]
fn silent_random_drops_cause_retransmissions_but_flows_recover() {
    let ft = ft4();
    let mut s = sim(&ft);
    // Intra-pod flow pinned by ECMP; 5% silent drop on one direction of the
    // ToR(0,0) uplink toward Agg(0,0) AND Agg(0,1): whatever path is
    // hashed, data packets cross a lossy interface.
    for a in 0..2 {
        s.set_directed_fault(
            ft.tor(0, 0),
            ft.agg(0, a),
            FaultState {
                silent_drop_rate: 0.05,
                ..FaultState::HEALTHY
            },
        );
    }
    let sp = spec(&ft, (0, 0, 0), (0, 1, 0), 7000, 500_000);
    install_flows(&mut s, &[sp], |w| &mut w.engine);
    s.run_until(Nanos::from_secs(60));
    let r = s.world.engine.report(0);
    assert!(r.completed_at.is_some(), "TCP must recover from 5% loss");
    assert!(r.retrans_total > 0, "5% loss must cause retransmissions");
    assert_eq!(r.received, 500_000);
}

#[test]
fn blackhole_stalls_flow_and_raises_consecutive_retrans() {
    let ft = ft4();
    let mut s = sim(&ft);
    // Blackhole every uplink of the source ToR: the flow cannot make any
    // progress at all.
    for a in 0..2 {
        s.set_directed_fault(
            ft.tor(0, 0),
            ft.agg(0, a),
            FaultState {
                blackhole: true,
                ..FaultState::HEALTHY
            },
        );
    }
    let sp = spec(&ft, (0, 0, 0), (1, 0, 0), 7500, 100_000);
    install_flows(&mut s, &[sp], |w| &mut w.engine);
    s.run_until(Nanos::from_secs(20));
    let r = s.world.engine.report(0);
    assert!(r.completed_at.is_none(), "blackholed flow cannot complete");
    assert!(r.acked == 0);
    assert!(
        r.consecutive_retrans >= 3,
        "timeouts must accumulate: {}",
        r.consecutive_retrans
    );
    assert_eq!(
        s.world.engine.poor_flows(sp.src, 2),
        vec![sp.flow],
        "getPoorTCPFlows must flag the victim"
    );
}

#[test]
fn congestion_tail_drops_recovered() {
    let ft = ft4();
    let mut cfg = SimConfig::for_tests();
    // Tiny queues to force tail drops at the shared final egress.
    cfg.fabric_link.queue_pkts = 8;
    let mut s = Simulator::new(
        &ft,
        cfg,
        Box::new(NoTagging),
        TcpWorld::new(TcpEngine::new(TcpConfig::default())),
    );
    // Two competing flows into the same destination host: the final ToR
    // egress is a guaranteed 2-into-1 bottleneck that overflows the
    // 8-packet queue.
    let a = spec(&ft, (0, 0, 0), (0, 1, 0), 8000, 600_000);
    let b = spec(&ft, (0, 0, 1), (0, 1, 0), 8001, 600_000);
    install_flows(&mut s, &[a, b], |w| &mut w.engine);
    s.run_until(Nanos::from_secs(60));
    assert!(s.world.engine.all_complete());
    let total_retrans: u64 = s.world.engine.reports().map(|r| r.retrans_total).sum();
    let total_drops: u64 = s.stats.total_actual_drops();
    assert!(total_drops > 0, "setup must actually overflow queues");
    assert!(
        total_retrans > 0,
        "drops must be repaired by retransmission"
    );
    for r in s.world.engine.reports() {
        assert_eq!(r.received, r.size, "every byte delivered exactly");
    }
}

#[test]
fn fast_retransmit_fires_on_mid_window_loss() {
    let ft = ft4();
    let mut s = sim(&ft);
    // A low random-loss rate on a long flow with a large steady window:
    // losses land mid-window, so dup-ACKs accumulate and fast retransmit
    // (not just RTO) must fire.
    for a in 0..2 {
        s.set_directed_fault(
            ft.tor(0, 0),
            ft.agg(0, a),
            FaultState {
                silent_drop_rate: 0.005,
                ..FaultState::HEALTHY
            },
        );
    }
    let sp = spec(&ft, (0, 0, 0), (2, 0, 0), 8100, 4_000_000);
    install_flows(&mut s, &[sp], |w| &mut w.engine);
    s.run_until(Nanos::from_secs(120));
    let r = s.world.engine.report(0);
    assert!(
        r.completed_at.is_some(),
        "flow must complete under 0.5% loss"
    );
    assert!(
        r.fast_retrans > 0,
        "mid-window losses should trigger dup-ack recovery (fast={}, timeout={})",
        r.fast_retrans,
        r.timeout_retrans
    );
}

#[test]
fn deterministic_under_seed() {
    let ft = ft4();
    let run = || {
        let mut s = sim(&ft);
        let sp = spec(&ft, (0, 0, 0), (3, 1, 1), 9000, 300_000);
        install_flows(&mut s, &[sp], |w| &mut w.engine);
        s.run_until(Nanos::from_secs(20));
        (
            s.world.engine.report(0).fct(),
            s.stats.events,
            s.stats.delivered_pkts,
        )
    };
    assert_eq!(run(), run());
}
