//! The scenario space shared by the simulator's two result gates
//! (`golden.rs`, `prop_stepping.rs`): k = 4/6/8 fat-trees ×
//! ECMP / spray / weighted spray × tag-every-hop punts × link-down /
//! silent / blackhole / NIC faults, under a world that reacts to what it
//! observes, run in one coarse or 2–12 fine `run_until` slices.
//!
//! Inputs are kept deliberately small: the vendored proptest stub does
//! not shrink failures.

use pathdump_simnet::{
    CtrlApi, FaultState, HostApi, LoadBalance, NoTagging, Packet, Punt, SimConfig, SimStats,
    Simulator, TagHeaders, TagPolicy, World,
};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, PortNo, SwitchId, UpDownRouting,
};
use rand::Rng;

/// Pushes a tag at every switch, so multi-hop packets exceed the ASIC
/// limit and exercise the punt → controller → packet-out round trip.
struct TagEveryHop;

impl TagPolicy for TagEveryHop {
    fn on_forward(&self, sw: SwitchId, _in: Option<PortNo>, _out: PortNo, h: &mut TagHeaders) {
        h.push_tag(sw.0 % 4096);
    }
}

/// Token of the timer every scenario arms at exactly the final horizon.
const HORIZON_TIMER: u64 = 0xE0D;

/// A world that observes *and* reacts: every third delivered data packet
/// is echoed back to its sender, so the gates also cover host feedback
/// into the fabric (uid allocation order, the shared HostApi RNG stream,
/// world-driven sends). Punted packets are stripped and re-injected, like
/// the PathDump controller.
#[derive(Default)]
struct EchoWorld {
    delivered: Vec<(HostId, u64, Vec<SwitchId>, Nanos)>,
    punts: Vec<(SwitchId, u64, Nanos)>,
    rng_draws: Vec<u64>,
    timers: Vec<(u64, Nanos)>,
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

    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
        self.timers.push((token, api.now()));
    }

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
pub type FlowSel = ((u8, u8, u8), (u8, u8, u8), u8);

/// One generated scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub k: u16,
    pub seed: u64,
    pub lb: u8,
    pub tagged: bool,
    pub faults: Vec<(u8, u8, u8)>, // (kind, selector a, selector b)
    pub flows: Vec<FlowSel>,
}

/// Everything a run lets its harness see.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub stats: SimStats,
    /// Deliveries in order: host, uid, ground-truth path, time.
    pub delivered: Vec<(HostId, u64, Vec<SwitchId>, Nanos)>,
    /// Punts in order: switch, uid, time.
    pub punts: Vec<(SwitchId, u64, Nanos)>,
    /// The world's draws from the edge RNG stream.
    pub rng_draws: Vec<u64>,
    /// Timer callbacks in order: token, time.
    pub timers: Vec<(u64, Nanos)>,
    /// `(now(), pending_events())` at every `run_until` return — a
    /// function of where the slices fall, so only runs with the same
    /// `steps` are comparable on it.
    pub boundaries: Vec<(Nanos, usize)>,
}

/// Runs one scenario. `steps`: 0 = the default coarse
/// two-step run; n ≥ 2 = fine-grained stepping (n equal `run_until`
/// slices), each boundary landing mid-flight.
pub fn run(sc: &Scenario, steps: u8) -> Observed {
    let ft = FatTree::build(FatTreeParams { k: sc.k });
    let mut cfg = SimConfig::for_tests();
    cfg.seed = sc.seed;
    let tag: Box<dyn TagPolicy> = if sc.tagged {
        Box::new(TagEveryHop)
    } else {
        Box::new(NoTagging)
    };
    let mut sim = Simulator::new(&ft, cfg, tag, EchoWorld::default());

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
    // `run_until(t)` is inclusive: a timer stamped exactly `end` fires.
    sim.schedule_timer(HostId(0), end, HORIZON_TIMER);
    let mut boundaries = Vec::new();
    let mut step_to = |sim: &mut Simulator<EchoWorld>, t: Nanos| {
        sim.run_until(t);
        boundaries.push((sim.now(), sim.pending_events()));
    };
    if steps < 2 {
        // Two-step run: one mid-stream boundary.
        step_to(&mut sim, Nanos::from_millis(3));
        step_to(&mut sim, end);
    } else {
        for i in 1..=steps as u64 {
            step_to(&mut sim, Nanos(end.0 * i / steps as u64));
        }
    }
    let w = sim.world;
    Observed {
        stats: sim.stats,
        delivered: w.delivered,
        punts: w.punts,
        rng_draws: w.rng_draws,
        timers: w.timers,
        boundaries,
    }
}
