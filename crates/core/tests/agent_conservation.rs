//! Property-style driver for [`HostAgent`]: whatever the packet stream,
//! every byte and packet the agent saw is either queryable (TIB + live
//! trajectory memory) or accounted as a reconstruction failure — nothing
//! is lost or double-counted across FIN/RST evictions, idle ticks and the
//! final flush.
//!
//! The streams mix multipath spraying, FIN/RST evictions (including
//! FIN-on-first-packet), corrupted tag stacks (infeasible paths) and idle
//! ticks between windows. The generator keeps its own ledger — per-flow
//! byte/packet totals of the clean packets, and the lifetime of every
//! per-path record — and the agent must agree with it at every window
//! boundary.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent, Invariant, Query, Reason, Response, TibRead};
use pathdump_simnet::{Packet, TagPolicy, TcpFlags};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, Path, PortNo, TimeRange, UpDownRouting,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn fabric() -> (FatTree, Fabric, FatTreeCherryPick) {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let f = Fabric::FatTree(FatTreeReconstructor::new(ft.clone()));
    let p = FatTreeCherryPick::new(ft.clone());
    (ft, f, p)
}

/// Builds the packet a given path would deliver (tag policy applied hop
/// by hop, exactly like the dataplane).
fn pkt_on_path(
    ft: &FatTree,
    policy: &FatTreeCherryPick,
    flow: FlowId,
    path: &Path,
    bytes: u32,
    flags: TcpFlags,
) -> Packet {
    let mut pkt = Packet::data(1, flow, 0, bytes, Nanos::ZERO);
    pkt.flags = flags;
    let topo = ft.topology();
    for (i, &sw) in path.0.iter().enumerate() {
        let in_port = if i == 0 {
            topo.switch(sw)
                .ports
                .iter()
                .position(|p| matches!(p, pathdump_topology::Peer::Host(_)))
                .map(|p| PortNo(p as u8))
        } else {
            topo.switch(sw).port_towards(path.0[i - 1])
        };
        policy.on_forward(sw, in_port, PortNo(0), &mut pkt.headers);
    }
    pkt
}

/// One generated packet: source host selector, sport (flow identity),
/// path selector, bytes, flag selector, and a corruption toggle.
type PktSpec = (u8, u16, u8, u16, u8, bool);

/// The generated scenario: packet windows with a tick after each.
fn stream_strategy() -> impl Strategy<Value = Vec<Vec<PktSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u8..16,    // src host selector
                0u16..12,   // sport → flow identity
                0u8..=255,  // path selector
                64u16..900, // bytes
                0u8..8,     // 0..=4 plain, 5 FIN, 6 RST, 7 FIN
                any::<bool>(),
            ),
            1..24,
        ),
        1..4,
    )
}

/// The path a record follows: an index into the flow's path set, or
/// `None` for the corrupted tag stack.
type PathSel = Option<usize>;

/// Builds one packet and says which of the flow's records it lands on.
fn build_packet(
    ft: &FatTree,
    policy: &FatTreeCherryPick,
    dst: HostId,
    spec: &PktSpec,
) -> (Packet, PathSel) {
    let (src_sel, sport, path_sel, bytes, flag_sel, corrupt) = *spec;
    let topo = ft.topology();
    // Source hosts spread over 4 pods x 2 tors x 2 hosts; the slot that
    // would collide with `dst` maps elsewhere (no self-traffic).
    let mut src = ft.host(
        (src_sel / 4 % 4) as usize,
        (src_sel / 2 % 2) as usize,
        (src_sel % 2) as usize,
    );
    if src == dst {
        src = ft.host(3, 1, 1);
    }
    let flow = FlowId::tcp(topo.host(src).ip, 1024 + sport, topo.host(dst).ip, 80);
    let flags = match flag_sel {
        5 | 7 => TcpFlags::FIN,
        6 => TcpFlags::RST,
        _ => TcpFlags(0),
    };
    if corrupt {
        // A lying tag stack: class-A tag for the wrong position plus a
        // class-B core tag — reconstructs to an infeasible trajectory.
        let mut pkt = Packet::data(1, flow, 0, bytes as u32, Nanos::ZERO);
        pkt.flags = flags;
        pkt.headers.push_tag(3);
        pkt.headers.push_tag(4);
        return (pkt, None);
    }
    let paths = ft.all_paths(src, dst);
    let sel = path_sel as usize % paths.len();
    let pkt = pkt_on_path(ft, policy, flow, &paths[sel], bytes as u32, flags);
    (pkt, Some(sel))
}

/// What the generator knows it sent, kept independently of the agent.
#[derive(Default)]
struct Ledger {
    /// Per-flow (bytes, packets) of the clean packets.
    clean: HashMap<FlowId, (u64, u64)>,
    /// Live per-path records and when each was last touched.
    live: HashMap<(FlowId, PathSel), Nanos>,
    /// Record lifetimes begun so far, by kind.
    clean_records: u64,
    corrupt_records: u64,
    packets: u64,
}

impl Ledger {
    fn on_packet(&mut self, pkt: &Packet, sel: PathSel, now: Nanos) {
        self.packets += 1;
        if self.live.insert((pkt.flow, sel), now).is_none() {
            match sel {
                Some(_) => self.clean_records += 1,
                None => self.corrupt_records += 1,
            }
        }
        if sel.is_some() {
            let e = self.clean.entry(pkt.flow).or_default();
            e.0 += pkt.wire_size() as u64;
            e.1 += 1;
        }
        if pkt.flags.contains(TcpFlags::FIN) || pkt.flags.contains(TcpFlags::RST) {
            self.live.retain(|(flow, _), _| *flow != pkt.flow);
        }
    }

    fn on_tick(&mut self, now: Nanos, idle_timeout: Nanos) {
        self.live
            .retain(|_, last| now.saturating_sub(*last) < idle_timeout);
    }
}

/// `GetCount` per ledger flow must equal the ledger, over the TIB plus
/// (when `include_live`) the trajectory memory.
fn assert_conserved(agent: &mut HostAgent, fab: &Fabric, ledger: &Ledger, include_live: bool) {
    for (flow, &(bytes, pkts)) in &ledger.clean {
        let q = Query::GetCount {
            flow: *flow,
            path: None,
            range: TimeRange::ANY,
        };
        assert_eq!(
            agent.execute(fab, &q, include_live),
            Response::Count { bytes, pkts },
            "flow {flow:?} (include_live={include_live})"
        );
    }
}

fn run_conservation(windows: &[Vec<PktSpec>], with_invariant: bool) {
    let (ft, fab, policy) = fabric();
    let dst = ft.host(1, 0, 0);
    let cfg = AgentConfig::default();
    let mut agent = HostAgent::new(dst, cfg);
    let forbidden = ft.core(0);
    if with_invariant {
        agent.install_invariant(Invariant {
            forbidden: vec![forbidden],
            ..Invariant::default()
        });
    }
    let mut ledger = Ledger::default();
    let mut alarms = Vec::new();

    let mut t = 0u64;
    for window in windows {
        for spec in window {
            t += 1;
            let now = Nanos::from_millis(t);
            let (pkt, sel) = build_packet(&ft, &policy, dst, spec);
            agent.on_packet(&fab, &pkt, now);
            ledger.on_packet(&pkt, sel, now);
        }
        // Idle tick; far enough on to evict records of earlier windows.
        t += 4000;
        let now = Nanos::from_millis(t);
        agent.tick(&fab, now);
        ledger.on_tick(now, cfg.idle_timeout);
        alarms.extend(agent.drain_alarms());

        assert_conserved(&mut agent, &fab, &ledger, true);
        assert_eq!(agent.memory.len(), ledger.live.len(), "live records");
        assert_eq!(agent.packets_seen, ledger.packets);
    }

    t += 1;
    agent.flush(&fab, Nanos::from_millis(t));
    alarms.extend(agent.drain_alarms());

    assert!(agent.memory.is_empty());
    assert_conserved(&mut agent, &fab, &ledger, false);
    assert_eq!(agent.tib.len() as u64, ledger.clean_records, "TIB records");
    // A corrupted record fails construction when it is finalized, and with
    // an invariant installed also at first sight.
    let failures_per_record = if with_invariant { 2 } else { 1 };
    assert_eq!(
        agent.recon_failures,
        ledger.corrupt_records * failures_per_record
    );
    for a in &alarms {
        match a.reason {
            Reason::PcFail => {
                assert!(with_invariant);
                assert!(a.paths[0].contains(forbidden), "{a:?}");
            }
            Reason::InfeasiblePath => assert!(ledger.corrupt_records > 0),
            _ => panic!("unexpected alarm {a:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bytes_and_packets_are_conserved(windows in stream_strategy()) {
        run_conservation(&windows, false);
    }

    /// Same, with a path-conformance invariant installed: first-sight
    /// construction and alarms must not disturb what is stored.
    #[test]
    fn bytes_and_packets_are_conserved_with_invariants(windows in stream_strategy()) {
        run_conservation(&windows, true);
    }
}

/// FIN on the very first packet of a flow: the record is created and
/// evicted by the same packet and must still reach the TIB whole.
#[test]
fn fin_on_first_packet() {
    let (ft, fab, policy) = fabric();
    let dst = ft.host(1, 0, 0);
    let src = ft.host(0, 0, 0);
    let topo = ft.topology();
    let flow = FlowId::tcp(topo.host(src).ip, 5000, topo.host(dst).ip, 80);
    let path = ft.all_paths(src, dst).remove(0);
    let pkt = pkt_on_path(&ft, &policy, flow, &path, 300, TcpFlags::FIN);

    let mut agent = HostAgent::new(dst, AgentConfig::default());
    agent.on_packet(&fab, &pkt, Nanos::from_millis(1));

    assert!(agent.memory.is_empty());
    let recs = agent.tib.records_vec();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].path, path);
    assert_eq!(
        (recs[0].bytes, recs[0].pkts),
        (pkt.wire_size() as u64, 1),
        "the lone packet is the whole record"
    );
}
