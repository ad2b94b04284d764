//! Differential verification harness: for each injected route-table
//! misconfiguration class — wrong port, pruned candidate, swapped uplinks,
//! cross-pod loop — assert that
//!
//! (a) the **static** verifier (`pathdump_verifier`), analyzing the exact
//!     tables the simulator forwards with (`Simulator::route_tables`),
//!     flags the injected class at the injected switch with a concrete
//!     witness walk that is contiguous in the topology; and
//!
//! (b) the **runtime** intent-derived conformance check
//!     (`ConformancePolicy::from_intent`) catches the flows that actually
//!     traverse the bad rule, raising `PC_FAIL` with the observed
//!     trajectory first and the nearest intended path second.
//!
//! Fat-tree scenarios that deliver 7-switch deviating walks raise
//! `asic_tag_limit` to 3: with the default budget of 2 the destination ToR
//! punts the packet and the controller strips its tags before re-injection,
//! so the trajectory would surface as an infeasible 1-switch path instead
//! of reconstructing. VL2's first sample rides the DSCP field, so its
//! 7-switch walks carry only 2 VLAN tags and need no such bump.

use std::sync::Arc;

use pathdump_apps::conformance::{infeasible, violations, ConformancePolicy};
use pathdump_apps::Testbed;
use pathdump_cherrypick::{Vl2CherryPick, Vl2Reconstructor};
use pathdump_core::{Alarm, Fabric, PathDumpWorld, WorldConfig};
use pathdump_simnet::{DropReason, FaultState, Misconfig, Quirk, SimConfig, Simulator};
use pathdump_topology::routing::is_contiguous_walk;
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, PortNo, RouteTables, SwitchId, UpDownRouting,
    Vl2, Vl2Params,
};
use pathdump_transport::{install_flows, FlowSpec, TcpConfig};
use pathdump_verifier::{verify, verify_with_intent, IntentModel, Verdict, ViolationKind};

fn ft_testbed(k: u16, asic_tag_limit: usize) -> Testbed {
    let mut cfg = SimConfig::for_tests();
    cfg.asic_tag_limit = asic_tag_limit;
    Testbed::fattree(k, cfg, WorldConfig::default())
}

fn all_hosts(tb: &Testbed) -> Vec<HostId> {
    (0..tb.sim.topology().num_hosts() as u32)
        .map(HostId)
        .collect()
}

/// Static half of a scenario: inject into fresh canonical tables and check
/// the verdict class, offending switch, and witness validity.
fn static_verdict<R: UpDownRouting>(routing: &R, m: &Misconfig) -> Verdict {
    let mut rt = RouteTables::build(routing);
    m.apply(&mut rt);
    verify(routing.topology(), &rt)
}

fn assert_witnessed(
    routing: &impl UpDownRouting,
    verdict: &Verdict,
    kind: ViolationKind,
    sw: SwitchId,
) {
    let topo = routing.topology();
    let hit = verdict
        .of_kind(kind)
        .find(|v| v.offending_switch() == sw)
        .unwrap_or_else(|| panic!("expected {kind:?} at {sw}, got {:?}", verdict.violations));
    let w = hit.witness().expect("graph violations carry witnesses");
    assert!(is_contiguous_walk(topo, w), "witness not a walk: {w}");
    match kind {
        ViolationKind::Loop => {
            assert!(
                w.has_repeated_link(),
                "loop witness must repeat a link: {w}"
            )
        }
        _ => assert_eq!(w.last(), Some(sw), "witness must end at the bad switch"),
    }
}

/// Runs one fat-tree runtime scenario; returns the alarms and the
/// controller's loop-detection count for scenario-specific checks.
fn run_ft(k: u16, asic_tag_limit: usize, setup: impl Fn(&mut Testbed)) -> (Vec<Alarm>, usize) {
    let mut tb = ft_testbed(k, asic_tag_limit);
    let intent = Arc::new(IntentModel::from_routing(&tb.ft).expect("healthy intent"));
    let hosts = all_hosts(&tb);
    ConformancePolicy::from_intent(intent).install(&mut tb.sim.world, &hosts);
    setup(&mut tb);
    tb.sim.run_until(Nanos::from_secs(5));
    let detections = tb.sim.world.loop_detections.len();
    (tb.sim.world.drain_alarms(), detections)
}

// --- fat-tree: wrong port (misdelivery) ---------------------------------

/// ToR(0,0)'s rule for ToR(1,0) rewritten to its host-facing port 0:
/// statically a misdelivery; at runtime packets land on the wrong host,
/// whose agent reconstructs the 1-switch trajectory and flags it as outside
/// the intent set.
#[test]
fn wrong_port_fattree() {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let m = Misconfig::WrongPort {
        sw: ft.tor(0, 0),
        dst_tor: ft.tor(1, 0),
        port: PortNo(0),
    };
    let verdict = static_verdict(&ft, &m);
    assert_witnessed(&ft, &verdict, ViolationKind::Misdelivery, ft.tor(0, 0));

    let wrong_host = ft.host(0, 0, 0);
    let (alarms, _) = run_ft(4, 2, |tb| {
        tb.sim.install_misconfig(&m);
        let (src, dst) = (tb.ft.host(0, 0, 1), tb.ft.host(1, 0, 0));
        for sport in 9300..9304u16 {
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    let v = violations(&alarms);
    assert!(!v.is_empty(), "misdelivered flows must raise PC_FAIL");
    for a in &v {
        assert_eq!(a.host, wrong_host, "detected at the wrong-delivery edge");
        assert_eq!(a.paths[0].0, vec![ft.tor(0, 0)], "observed 1-switch walk");
        assert_eq!(a.paths.len(), 2, "nearest intended path attached");
        assert_eq!(a.paths[1].first(), Some(ft.tor(0, 0)));
        assert_eq!(a.paths[1].last(), Some(ft.tor(1, 0)));
    }
}

// --- fat-tree: pruned candidate -----------------------------------------

/// Pruning one of two ECMP members leaves a loop-free, blackhole-free
/// table: only the rule-level diff flags it, and runtime traffic stays on
/// intended paths — no false alarms.
#[test]
fn pruned_candidate_fattree_partial_prune_is_silent() {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let m = Misconfig::PruneCandidate {
        sw: ft.tor(0, 0),
        dst_tor: ft.tor(1, 0),
        port: PortNo(2),
    };
    let mut rt = RouteTables::build(&ft);
    m.apply(&mut rt);
    assert!(verify(ft.topology(), &rt).is_clean());
    let intended = RouteTables::build(&ft);
    let with_diff = verify_with_intent(ft.topology(), &rt, &intended);
    let devs: Vec<_> = with_diff.of_kind(ViolationKind::RuleDeviation).collect();
    assert_eq!(devs.len(), 1);
    assert_eq!(devs[0].offending_switch(), ft.tor(0, 0));
    assert_eq!(devs[0].dst_tor(), ft.tor(1, 0));

    let (alarms, _) = run_ft(4, 2, |tb| {
        tb.sim.install_misconfig(&m);
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
        for sport in 9400..9406u16 {
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    assert!(
        violations(&alarms).is_empty(),
        "surviving ECMP member keeps traffic on intended paths: {alarms:?}"
    );
}

/// Pruning the *last* member empties Agg(1,0)'s rule for ToR(1,0): the
/// verifier proves the blackhole; at runtime the dataplane papers over the
/// empty rule with a failover bounce, and flows that bounce through the
/// pod's third ToR deliver over a 5-switch walk outside the intent set.
/// Uses k=6 (a k=4 pod has no third ToR, so every bounce lands back on an
/// intended path).
#[test]
fn pruned_candidate_fattree_empty_rule_blackhole() {
    let ft = FatTree::build(FatTreeParams { k: 6 });
    let (a10, t10, t11) = (ft.agg(1, 0), ft.tor(1, 0), ft.tor(1, 1));
    let m = Misconfig::PruneCandidate {
        sw: a10,
        dst_tor: t10,
        port: PortNo(0),
    };
    let verdict = static_verdict(&ft, &m);
    assert_witnessed(&ft, &verdict, ViolationKind::Blackhole, a10);

    let (alarms, _) = run_ft(6, 2, |tb| {
        tb.sim.install_misconfig(&m);
        // Intra-pod flows from the second rack, pinned through the pruned
        // aggregate so every flow hits the empty rule.
        let (src, dst) = (tb.ft.host(1, 1, 0), tb.ft.host(1, 0, 0));
        let port = tb.sim.link_port(t11, a10);
        for sport in 9500..9508u16 {
            let flow = tb.flow(src, dst, sport);
            tb.sim
                .install_quirk(t11, Quirk::ForwardFlowTo { flow, port });
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    let v = violations(&alarms);
    assert!(!v.is_empty(), "bounced flows must leave the intent set");
    for a in &v {
        assert!(a.paths[0].len() >= 5, "detour walk: {}", a.paths[0]);
        assert_eq!(a.paths.len(), 2, "nearest intended path attached");
        assert_eq!(a.paths[1].first(), Some(t11));
        assert_eq!(a.paths[1].last(), Some(t10));
    }
}

// --- fat-tree: swapped rules --------------------------------------------

/// Transposing Agg(1,0)'s down-rules for its first two racks creates a
/// forwarding cycle (statically: Loop with a link-repeating witness). At
/// runtime, pinned intra-pod flows either trap in the cycle (caught by the
/// controller's loop detector) or escape over a 5-switch walk outside the
/// intent set (caught by PC_FAIL).
#[test]
fn swapped_rules_fattree_loop() {
    let ft = FatTree::build(FatTreeParams { k: 6 });
    let (a10, t10, t11, t12) = (ft.agg(1, 0), ft.tor(1, 0), ft.tor(1, 1), ft.tor(1, 2));
    let m = Misconfig::SwapRules {
        sw: a10,
        dst_a: t10,
        dst_b: t11,
    };
    let verdict = static_verdict(&ft, &m);
    let loops: Vec<_> = verdict.of_kind(ViolationKind::Loop).collect();
    assert!(!loops.is_empty(), "swap must create a cycle");
    for l in &loops {
        let w = l.witness().expect("loop witness");
        assert!(is_contiguous_walk(ft.topology(), w));
        assert!(w.has_repeated_link());
        assert!(w.contains(a10), "cycle runs through the swapped agg: {w}");
    }

    let (alarms, trapped) = run_ft(6, 2, |tb| {
        tb.sim.install_misconfig(&m);
        let (src, dst) = (tb.ft.host(1, 2, 0), tb.ft.host(1, 0, 0));
        let port = tb.sim.link_port(t12, a10);
        for sport in 9600..9608u16 {
            let flow = tb.flow(src, dst, sport);
            tb.sim
                .install_quirk(t12, Quirk::ForwardFlowTo { flow, port });
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    let v = violations(&alarms);
    assert!(
        !v.is_empty(),
        "escaped flows must raise PC_FAIL: {alarms:?}"
    );
    for a in &v {
        // Escape shape: t12 → a10 → t11 → (a11|a12) → t10.
        assert_eq!(a.paths[0].first(), Some(t12));
        assert_eq!(a.paths[0].last(), Some(t10));
        assert!(
            a.paths[0].contains(t11),
            "walk bounced off t11: {}",
            a.paths[0]
        );
    }
    // Flows whose escape hop re-picks the swapped agg trap in the cycle and
    // surface through the controller's trap-handler loop detector instead.
    assert!(
        v.len() + trapped >= 4,
        "most pinned flows are caught one way or the other: {alarms:?}"
    );
}

// --- fat-tree: cross-pod loop -------------------------------------------

/// Core(0)'s rule for ToR(0,0) rewritten toward pod 1: statically a Loop
/// (core ↔ Agg(1,0)); at runtime flows pinned through Core(0) either trap
/// in the cycle — caught by the controller's trap-handler loop detector —
/// or escape through the position's other core and deliver over a
/// 7-switch cross-pod walk. That walk traverses two cores, which is not a
/// feasible up-down shape, so the destination edge cannot explain its tag
/// set by *any* intended path and raises `InfeasiblePath` (the §2.4
/// wrong-trajectory detector) — a strictly stronger runtime verdict than
/// `PC_FAIL` for this class. Runs with `asic_tag_limit` = 3 so the 3-tag
/// deviating walk arrives in-band rather than being punted and stripped.
#[test]
fn cross_pod_loop_fattree() {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let (c0, t00, t20, a20) = (ft.core(0), ft.tor(0, 0), ft.tor(2, 0), ft.agg(2, 0));
    // Port p of a core faces pod p; pod 1 is wrong for ToR(0,0).
    let m = Misconfig::CrossPodLoop {
        sw: c0,
        dst_tor: t00,
        wrong_port: PortNo(1),
    };
    let verdict = static_verdict(&ft, &m);
    let loops: Vec<_> = verdict.of_kind(ViolationKind::Loop).collect();
    assert!(!loops.is_empty(), "cross-pod rewrite must create a cycle");
    assert!(
        loops
            .iter()
            .any(|l| l.witness().is_some_and(|w| w.contains(c0))),
        "cycle runs through the rewritten core: {loops:?}"
    );

    let dst_host = ft.host(0, 0, 0);
    let (alarms, trapped) = run_ft(4, 3, |tb| {
        tb.sim.install_misconfig(&m);
        let (src, dst) = (tb.ft.host(2, 0, 0), tb.ft.host(0, 0, 0));
        let up = tb.sim.link_port(t20, a20);
        let core_up = tb.sim.link_port(a20, c0);
        for sport in 9700..9708u16 {
            let flow = tb.flow(src, dst, sport);
            tb.sim
                .install_quirk(t20, Quirk::ForwardFlowTo { flow, port: up });
            tb.sim.install_quirk(
                a20,
                Quirk::ForwardFlowTo {
                    flow,
                    port: core_up,
                },
            );
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    let inf = infeasible(&alarms);
    assert!(
        !inf.is_empty(),
        "escaped flows must be flagged as infeasible trajectories: {alarms:?}"
    );
    assert!(
        inf.iter().all(|a| a.host == dst_host),
        "detected at the destination edge: {inf:?}"
    );
    assert!(trapped > 0, "cycled flows must trip the loop detector");
    let caught: std::collections::HashSet<_> = inf.iter().map(|a| a.flow).collect();
    assert!(
        caught.len() + trapped >= 4,
        "most pinned flows are caught one way or the other: {alarms:?}"
    );
}

// --- VL2 variants --------------------------------------------------------

fn vl2_small() -> Vl2 {
    Vl2::build(Vl2Params {
        da: 4,
        di: 4,
        hosts_per_tor: 2,
    })
}

struct Vl2Bed {
    v: Vl2,
    sim: Simulator<PathDumpWorld>,
}

/// VL2 testbed with the intent-derived conformance policy on every host.
fn vl2_testbed() -> Vl2Bed {
    let v = vl2_small();
    let cfg = SimConfig::for_tests();
    let world = PathDumpWorld::new(
        Fabric::Vl2(Vl2Reconstructor::new(v.clone())),
        TcpConfig::default(),
        WorldConfig::default(),
    );
    let mut sim = Simulator::new(&v, cfg, Box::new(Vl2CherryPick::new(v.clone())), world);
    PathDumpWorld::start(&mut sim);
    let intent = Arc::new(IntentModel::from_routing(&v).expect("healthy VL2 intent"));
    let hosts: Vec<HostId> = (0..sim.topology().num_hosts() as u32).map(HostId).collect();
    ConformancePolicy::from_intent(intent).install(&mut sim.world, &hosts);
    Vl2Bed { v, sim }
}

fn vl2_flow(bed: &Vl2Bed, src: HostId, dst: HostId, sport: u16) -> FlowId {
    let topo = bed.sim.topology();
    FlowId::tcp(topo.host(src).ip, sport, topo.host(dst).ip, 80)
}

fn vl2_add_flows(bed: &mut Vl2Bed, src: HostId, dst: HostId, sports: std::ops::Range<u16>) {
    let specs: Vec<FlowSpec> = sports
        .map(|sport| FlowSpec {
            flow: vl2_flow(bed, src, dst, sport),
            src,
            dst,
            size: 4_000,
            start: Nanos::ZERO,
        })
        .collect();
    install_flows(&mut bed.sim, &specs, |w| &mut w.tcp);
}

fn run_vl2(setup: impl Fn(&mut Vl2Bed)) -> Vec<Alarm> {
    let mut bed = vl2_testbed();
    setup(&mut bed);
    bed.sim.run_until(Nanos::from_secs(5));
    bed.sim.world.drain_alarms()
}

/// VL2 wrong port: ToR(0)'s rule for ToR(1) rewritten to a host port.
#[test]
fn wrong_port_vl2() {
    let v = vl2_small();
    let m = Misconfig::WrongPort {
        sw: v.tor(0),
        dst_tor: v.tor(1),
        port: PortNo(0),
    };
    let verdict = static_verdict(&v, &m);
    assert_witnessed(&v, &verdict, ViolationKind::Misdelivery, v.tor(0));

    let wrong_host = v.host(0, 0);
    let alarms = run_vl2(|bed| {
        bed.sim.install_misconfig(&m);
        vl2_add_flows(bed, bed.v.host(0, 1), bed.v.host(1, 0), 9800..9804);
    });
    let va = violations(&alarms);
    assert!(!va.is_empty(), "misdelivered flows must raise PC_FAIL");
    for a in &va {
        assert_eq!(a.host, wrong_host);
        assert_eq!(a.paths[0].0, vec![v.tor(0)]);
        assert_eq!(a.paths.len(), 2);
    }
}

/// VL2 pruned-to-empty rule: Agg(2) loses its only port toward attached
/// ToR(1) — statically a blackhole; at runtime flows arriving at Agg(2)
/// from an intermediate bounce through attached ToR(3) and deliver over a
/// 7-switch walk outside the intent set (1 DSCP sample + 2 VLAN tags, so
/// no punt at the default tag budget).
#[test]
fn pruned_candidate_vl2_empty_rule_blackhole() {
    let v = vl2_small();
    let (a2, t1, t3) = (v.agg(2), v.tor(1), v.tor(3));
    let down = v
        .topology()
        .switch(a2)
        .port_towards(t1)
        .expect("agg2 attaches tor1");
    let m = Misconfig::PruneCandidate {
        sw: a2,
        dst_tor: t1,
        port: down,
    };
    let verdict = static_verdict(&v, &m);
    assert_witnessed(&v, &verdict, ViolationKind::Blackhole, a2);

    let alarms = run_vl2(|bed| {
        bed.sim.install_misconfig(&m);
        vl2_add_flows(bed, bed.v.host(0, 0), bed.v.host(1, 0), 9820..9836);
    });
    let va = violations(&alarms);
    assert!(!va.is_empty(), "bounced flows must leave the intent set");
    for a in &va {
        assert!(a.paths[0].len() >= 5, "detour walk: {}", a.paths[0]);
        assert!(a.paths[0].contains(t3), "bounce via ToR(3): {}", a.paths[0]);
        assert_eq!(a.paths.len(), 2);
    }
}

/// VL2 swapped rules: Agg(2)'s down-rules for its two attached racks
/// transposed — statically a loop; runtime flows either trap or escape
/// over a non-intended walk.
#[test]
fn swapped_rules_vl2_loop() {
    let v = vl2_small();
    let (a2, t1, t3) = (v.agg(2), v.tor(1), v.tor(3));
    let m = Misconfig::SwapRules {
        sw: a2,
        dst_a: t1,
        dst_b: t3,
    };
    let verdict = static_verdict(&v, &m);
    let loops: Vec<_> = verdict.of_kind(ViolationKind::Loop).collect();
    assert!(!loops.is_empty(), "swap must create a cycle: {verdict:?}");
    for l in &loops {
        let w = l.witness().expect("loop witness");
        assert!(is_contiguous_walk(v.topology(), w));
        assert!(w.has_repeated_link());
    }

    let alarms = run_vl2(|bed| {
        bed.sim.install_misconfig(&m);
        vl2_add_flows(bed, bed.v.host(0, 0), bed.v.host(1, 0), 9840..9856);
    });
    assert!(
        !violations(&alarms).is_empty(),
        "escaped flows must raise PC_FAIL: {alarms:?}"
    );
}

/// VL2 cross-fabric loop analog: Intermediate(0)'s rule for ToR(3)
/// rewritten toward Agg(0) (which does not attach ToR(3)) — statically a
/// loop between the intermediate tier and Agg(0); runtime escapes ride a
/// 7-switch walk through both intermediates.
#[test]
fn cross_pod_loop_vl2() {
    let v = vl2_small();
    let (i0, t3) = (v.int(0), v.tor(3));
    // Intermediate ports are indexed by aggregate number: port 0 → Agg(0).
    let m = Misconfig::CrossPodLoop {
        sw: i0,
        dst_tor: t3,
        wrong_port: PortNo(0),
    };
    let verdict = static_verdict(&v, &m);
    let loops: Vec<_> = verdict.of_kind(ViolationKind::Loop).collect();
    assert!(
        !loops.is_empty(),
        "rewrite must create a cycle: {verdict:?}"
    );
    assert!(
        loops
            .iter()
            .any(|l| l.witness().is_some_and(|w| w.contains(i0))),
        "cycle runs through the rewritten intermediate: {loops:?}"
    );

    let alarms = run_vl2(|bed| {
        bed.sim.install_misconfig(&m);
        vl2_add_flows(bed, bed.v.host(0, 0), bed.v.host(3, 0), 9860..9876);
    });
    let va = violations(&alarms);
    assert!(
        !va.is_empty(),
        "escaped flows must raise PC_FAIL: {alarms:?}"
    );
    for a in &va {
        assert_eq!(a.paths[0].len(), 7, "two-intermediate walk: {}", a.paths[0]);
        assert!(a.paths[0].contains(i0));
    }
}

// --- healthy state stays clean end-to-end -------------------------------

/// With no misconfiguration, the intent-derived policy must stay silent on
/// live traffic, and healthy tables of every evaluated scale verify clean.
#[test]
fn healthy_fabrics_verify_clean_and_stay_silent() {
    for k in [4u16, 6, 8, 16] {
        let ft = FatTree::build(FatTreeParams { k });
        let rt = RouteTables::build(&ft);
        assert!(verify(ft.topology(), &rt).is_clean(), "k={k}");
    }
    for (da, di) in [(4u16, 4u16), (8, 8)] {
        let v = Vl2::build(Vl2Params {
            da,
            di,
            hosts_per_tor: 2,
        });
        let rt = RouteTables::build(&v);
        assert!(verify(v.topology(), &rt).is_clean(), "da={da} di={di}");
    }

    let (alarms, detections) = run_ft(4, 2, |tb| {
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(3, 1, 1));
        for sport in 9900..9906u16 {
            tb.add_flow(src, dst, sport, 4_000, Nanos::ZERO);
        }
    });
    assert!(violations(&alarms).is_empty(), "healthy fabric: {alarms:?}");
    assert!(infeasible(&alarms).is_empty(), "healthy fabric: {alarms:?}");
    assert_eq!(detections, 0, "healthy fabric has no loops");

    let alarms = run_vl2(|bed| {
        vl2_add_flows(bed, bed.v.host(0, 0), bed.v.host(1, 0), 9910..9916);
    });
    assert!(violations(&alarms).is_empty(), "healthy VL2: {alarms:?}");
}

// --- misconfiguration × fault composition -------------------------------

/// A misconfiguration composes with link faults without double-staging
/// drop accounting: packets steered onto a 100%-silently-dropping link by a
/// rewritten rule are staged in the drop log exactly once each, by the
/// fault machinery, and the hidden counter agrees with the log.
#[test]
fn misconfig_composes_with_silent_drops_without_double_staging() {
    let mut tb = ft_testbed(4, 2);
    let (t00, a00, t10) = (tb.ft.tor(0, 0), tb.ft.agg(0, 0), tb.ft.tor(1, 0));
    let up = tb.sim.link_port(t00, a00);
    // Rule rewrite: all of rack (0,0)'s traffic toward rack (1,0) takes the
    // first uplink…
    tb.sim.install_misconfig(&Misconfig::WrongPort {
        sw: t00,
        dst_tor: t10,
        port: up,
    });
    // …which silently discards everything.
    tb.sim.set_directed_fault(
        t00,
        a00,
        FaultState {
            silent_drop_rate: 1.0,
            ..FaultState::HEALTHY
        },
    );
    let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(1, 0, 0));
    for sport in 9950..9954u16 {
        tb.add_flow(src, dst, sport, 3_000, Nanos::ZERO);
    }
    tb.sim.run_until(Nanos::from_secs(2));

    let silent = tb.sim.stats.switch_ports[t00.index()][up.index()].silent_drops;
    assert!(silent > 0, "the fault must have eaten traffic");
    let logged: Vec<_> = tb
        .sim
        .stats
        .drop_log
        .iter()
        .filter(|r| r.reason == DropReason::SilentRandom)
        .collect();
    assert_eq!(
        logged.len() as u64,
        silent,
        "each silently dropped packet is staged exactly once"
    );
    let mut uids: Vec<u64> = logged.iter().map(|r| r.uid).collect();
    uids.sort_unstable();
    uids.dedup();
    assert_eq!(uids.len(), logged.len(), "no packet staged twice");
    assert!(
        logged
            .iter()
            .all(|r| r.sw == Some(t00) && r.port == Some(up)),
        "all drops at the misrouted egress"
    );
}
