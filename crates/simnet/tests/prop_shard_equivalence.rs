//! Differential proof that the sharded engine is bit-identical to the
//! sequential reference: for arbitrary seeds, fault injections, load-
//! balance policies, tagging (controller punts + re-injection), and
//! traffic matrices with world feedback (echo replies), both engines must
//! produce the same [`SimStats`] (per-port counters, drop records, punts)
//! and the same per-packet trajectories (delivery order, uid, ground-truth
//! path, delivery time).
//!
//! Topology sizes: k = 4, 6, 8 fat-trees (5, 7, 9 switch shards).
//!
//! Inputs are kept deliberately small: the vendored proptest stub does
//! not shrink failures.

use pathdump_simnet::{
    CtrlApi, EngineKind, FaultState, HostApi, LoadBalance, NoTagging, Packet, Punt, SimConfig,
    SimStats, Simulator, TagHeaders, TagPolicy, World,
};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, PortNo, SwitchId, UpDownRouting,
};
use proptest::prelude::*;
use rand::Rng;

/// Pushes a tag at every switch, so multi-hop packets exceed the ASIC
/// limit and exercise the punt → controller → packet-out round trip
/// (cross-shard in both directions).
struct TagEveryHop;

impl TagPolicy for TagEveryHop {
    fn on_forward(&self, sw: SwitchId, _in: Option<PortNo>, _out: PortNo, h: &mut TagHeaders) {
        h.push_tag(sw.0 % 4096);
    }
}

/// A world that observes *and* reacts: every third delivered data packet
/// is echoed back to its sender, so the differential test also covers
/// edge-shard feedback into the fabric (uid allocation order, the shared
/// HostApi RNG stream, world-driven cross-shard sends). Punted packets are
/// stripped and re-injected, like the PathDump controller.
#[derive(Default)]
struct EchoWorld {
    delivered: Vec<(HostId, u64, Vec<SwitchId>, Nanos)>,
    punts: Vec<(SwitchId, u64, Nanos)>,
    rng_draws: Vec<u64>,
}

impl World for EchoWorld {
    fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: Packet) {
        let host = api.host();
        self.delivered
            .push((host, pkt.uid, pkt.gt_path.clone(), api.now()));
        // Consume the shared edge RNG stream: a divergent world-call order
        // would desynchronize every later draw and fail loudly.
        self.rng_draws.push(api.rng().gen::<u64>() & 0xFF);
        if pkt.uid.is_multiple_of(3) && pkt.payload > 100 {
            let mut echo = Packet::data(0, pkt.flow.reversed(), 0, 40, api.now());
            echo.uid = api.alloc_uid();
            api.send(echo);
        }
    }

    fn on_timer(&mut self, _api: &mut HostApi<'_>, _token: u64) {}

    fn on_punt(&mut self, api: &mut CtrlApi<'_>, punt: Punt) {
        self.punts.push((punt.sw, punt.pkt.uid, api.now()));
        let mut pkt = punt.pkt;
        pkt.headers.strip();
        api.packet_out(punt.sw, punt.in_port, pkt);
    }
}

fn flow_of(ft: &FatTree, src: HostId, dst: HostId, sport: u16) -> FlowId {
    let t = ft.topology();
    FlowId::tcp(t.host(src).ip, sport, t.host(dst).ip, 80)
}

fn host_sel(ft: &FatTree, sel: (u8, u8, u8)) -> HostId {
    let k = ft.num_pods();
    let half = ft.half();
    ft.host(
        sel.0 as usize % k,
        sel.1 as usize % half,
        sel.2 as usize % half,
    )
}

/// (pod, tor, slot) selectors for one generated flow's endpoints + count.
type FlowSel = ((u8, u8, u8), (u8, u8, u8), u8);

/// One generated scenario.
#[derive(Clone, Debug)]
struct Scenario {
    k: u16,
    seed: u64,
    lb: u8,
    tagged: bool,
    faults: Vec<(u8, u8, u8)>, // (kind, selector a, selector b)
    flows: Vec<FlowSel>,
}

type Trajectories = Vec<(HostId, u64, Vec<SwitchId>, Nanos)>;
type Observed = (
    SimStats,
    Trajectories,
    Vec<(SwitchId, u64, Nanos)>,
    Vec<u64>,
);

/// Runs one scenario on `engine`. `steps`: 0 = the default coarse
/// two-step run; n ≥ 2 = fine-grained stepping (n equal `run_until`
/// slices), exercising the mid-window merge once per slice.
fn run(sc: &Scenario, engine: EngineKind, steps: u8) -> Observed {
    let ft = FatTree::build(FatTreeParams { k: sc.k });
    let mut cfg = SimConfig::for_tests().with_engine(engine);
    cfg.seed = sc.seed;
    let tag: Box<dyn TagPolicy> = if sc.tagged {
        Box::new(TagEveryHop)
    } else {
        Box::new(NoTagging)
    };
    let mut sim = Simulator::new(&ft, cfg, tag, EchoWorld::default());
    assert_eq!(sim.effective_engine(), engine, "engine must not fall back");

    let half = ft.half();
    // Load-balance policy mix.
    match sc.lb % 3 {
        0 => {} // default ECMP
        1 => sim.set_lb_all(LoadBalance::Spray),
        _ => {
            sim.set_lb_all(LoadBalance::Spray);
            sim.set_lb(
                ft.tor(0, 0),
                LoadBalance::WeightedSpray((1..=half as u32).collect()),
            );
        }
    }
    // Fault injections: downed links, silent droppers, blackholes, NICs.
    for &(kind, a, b) in &sc.faults {
        let pod = a as usize % ft.num_pods();
        let pos = b as usize % half;
        match kind % 4 {
            0 => sim.set_link_down(ft.tor(pod, pos), ft.agg(pod, (pos + 1) % half), true),
            1 => sim.set_directed_fault(
                ft.agg(pod, pos),
                ft.tor(pod, (pos + 1) % half),
                FaultState {
                    silent_drop_rate: 0.25 + 0.5 * (a as f64 / 255.0),
                    ..FaultState::HEALTHY
                },
            ),
            2 => sim.set_directed_fault(
                ft.agg(pod, pos),
                ft.core(ft.core_index(pos, b as usize % half)),
                FaultState {
                    blackhole: true,
                    ..FaultState::HEALTHY
                },
            ),
            _ => sim.set_nic_fault(
                host_sel(&ft, (a, b, a)),
                FaultState {
                    silent_drop_rate: 0.5,
                    ..FaultState::HEALTHY
                },
            ),
        }
    }
    // Traffic.
    let mut sport = 2000u16;
    for &(s, d, n) in &sc.flows {
        let (src, dst) = (host_sel(&ft, s), host_sel(&ft, d));
        if src == dst {
            continue;
        }
        let f = flow_of(&ft, src, dst, sport);
        for _ in 0..(1 + n % 10) {
            let pkt = Packet::data(0, f, 0, 1000, sim.now());
            sim.send_from(src, pkt);
        }
        sport += 1;
    }
    let end = Nanos::from_millis(200);
    if steps < 2 {
        // Two-step run: exercises the mid-stream boundary merge as well.
        sim.run_until(Nanos::from_millis(3));
        sim.run_until(end);
    } else {
        for i in 1..=steps as u64 {
            sim.run_until(Nanos(end.0 * i / steps as u64));
        }
    }
    let w = sim.world;
    (sim.stats, w.delivered, w.punts, w.rng_draws)
}

/// The sharded engine run in `steps` slices must observe exactly what one
/// coarse sequential run observes.
fn assert_equivalent(sc: &Scenario, steps: u8) -> Result<(), proptest::test_runner::TestCaseError> {
    let seq = run(sc, EngineKind::Sequential, 0);
    let sha = run(sc, EngineKind::Sharded, steps);
    prop_assert_eq!(&sha.1, &seq.1, "trajectories diverged: {:?}", sc);
    prop_assert_eq!(&sha.2, &seq.2, "punts diverged: {:?}", sc);
    prop_assert_eq!(&sha.3, &seq.3, "world rng draws diverged: {:?}", sc);
    prop_assert_eq!(&sha.0, &seq.0, "stats diverged: {:?}", sc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// k=4: densest coverage of fault/LB/tagging mixes.
    #[test]
    fn shard_equivalence_k4(
        seed in any::<u64>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..4),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..5,
        ),
    ) {
        let sc = Scenario { k: 4, seed, lb, tagged, faults, flows };
        assert_equivalent(&sc, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// k=6 and k=8, alternating: larger fabrics, more shards.
    #[test]
    fn shard_equivalence_k6_k8(
        seed in any::<u64>(),
        big in any::<bool>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..3),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..4,
        ),
    ) {
        let sc = Scenario {
            k: if big { 8 } else { 6 },
            seed,
            lb,
            tagged,
            faults,
            flows,
        };
        assert_equivalent(&sc, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fine-grained stepping on the windowed rounds: many small
    /// `run_until` slices, each ending mid-window, must still be
    /// bit-identical to one sequential run.
    #[test]
    fn shard_equivalence_stepping(
        seed in any::<u64>(),
        lb in 0u8..3,
        tagged in any::<bool>(),
        steps in 5u8..12,
        faults in proptest::collection::vec((0u8..4, 0u8..=255, 0u8..=255), 0..3),
        flows in proptest::collection::vec(
            ((0u8..=255, 0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255), 0u8..=255),
            1..4,
        ),
    ) {
        let sc = Scenario { k: 4, seed, lb, tagged, faults, flows };
        assert_equivalent(&sc, steps)?;
    }
}
