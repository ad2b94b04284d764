//! Agent-layer coverage for the tiered store: sealing must be invisible
//! to everything above it.
//!
//! Differentials here pin that a `HostAgent` whose TIB auto-seals every
//! few records behaves **bit-identically** to one that never seals — TIB
//! contents, query responses, alarms, and standing-query events. The
//! standing engine is the sharpest edge: its incremental `on_record` feed
//! must observe every record exactly once even when the insert that
//! carried it also sealed the head out from under the store.
//!
//! The thread test drives real packet ingest on the writer while reader
//! threads query published views through [`TibReader`] — the lock-free
//! read path exercised end-to-end from the agent layer.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{execute_on_tib, AgentConfig, Fabric, HostAgent, Query, TibRead};
use pathdump_core::{StandingPredicate, StandingQuery};
use pathdump_simnet::{Packet, TagPolicy, TcpFlags};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, LinkPattern, Nanos, Path, PortNo, TimeRange, UpDownRouting,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn fabric() -> (FatTree, Fabric, FatTreeCherryPick) {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let f = Fabric::FatTree(FatTreeReconstructor::new(ft.clone()));
    let p = FatTreeCherryPick::new(ft.clone());
    (ft, f, p)
}

/// The packet a given path delivers (tag policy applied hop by hop).
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

/// A deterministic multi-flow stream into `dst`: spraying over paths,
/// FINs to force early finalization (TIB inserts while later packets are
/// still in flight).
fn stream(ft: &FatTree, policy: &FatTreeCherryPick, n: usize) -> Vec<(Packet, Nanos)> {
    let topo = ft.topology();
    let dst = ft.host(1, 0, 0);
    let srcs = [ft.host(0, 0, 0), ft.host(2, 1, 0), ft.host(3, 0, 1)];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let src = srcs[i % srcs.len()];
        let flow = FlowId::tcp(
            topo.host(src).ip,
            2000 + (i % 5) as u16,
            topo.host(dst).ip,
            80,
        );
        let paths = ft.all_paths(src, dst);
        let path = paths[i * 7 % paths.len()].clone();
        let flags = if i % 4 == 3 {
            TcpFlags::FIN
        } else {
            TcpFlags(0)
        };
        out.push((
            pkt_on_path(ft, policy, flow, &path, 200 + (i as u32 % 9) * 50, flags),
            Nanos::from_millis(1 + i as u64),
        ));
    }
    out
}

fn watch_all(agent: &mut HostAgent, ft: &FatTree) {
    let topo = ft.topology();
    let dst = ft.host(1, 0, 0);
    let src = ft.host(0, 0, 0);
    let flow = FlowId::tcp(topo.host(src).ip, 2000, topo.host(dst).ip, 80);
    agent.watch(
        StandingQuery::new(StandingPredicate::TopKMember { flow, k: 2 }),
        Nanos::ZERO,
    );
    agent.watch(
        StandingQuery::new(StandingPredicate::RateAbove {
            flow,
            window: Nanos::from_millis(40),
            min_bytes: 500,
            min_pkts: 2,
        }),
        Nanos::ZERO,
    );
    agent.watch(
        StandingQuery::new(StandingPredicate::PathChanged { flow }),
        Nanos::ZERO,
    );
    agent.watch(
        StandingQuery::new(StandingPredicate::LinkFlowsAbove {
            link: LinkPattern::ANY,
            ceiling: 3,
        }),
        Nanos::ZERO,
    );
}

/// Every observable output of a sealing agent vs a never-sealing one,
/// over the same stream: identical. Exercises the exactly-once standing
/// feed across seal boundaries for every seal threshold.
#[test]
fn sealing_agent_matches_non_sealing_agent() {
    let (ft, fab, policy) = fabric();
    let pkts = stream(&ft, &policy, 48);
    let dst = ft.host(1, 0, 0);

    for seal_after in [1usize, 2, 3, 7] {
        let mut plain = HostAgent::new(dst, AgentConfig::default());
        let mut sealing = HostAgent::new(dst, AgentConfig::default());
        sealing.tib.set_seal_after(Some(seal_after));
        watch_all(&mut plain, &ft);
        watch_all(&mut sealing, &ft);

        for (pkt, now) in &pkts {
            plain.on_packet(&fab, pkt, *now);
            sealing.on_packet(&fab, pkt, *now);
        }
        let end = Nanos::from_millis(10_000);
        plain.flush(&fab, end);
        sealing.flush(&fab, end);

        assert_eq!(plain.tib.num_sealed(), 0);
        assert!(
            sealing.tib.num_sealed() > 0,
            "threshold {seal_after} never sealed"
        );
        assert_eq!(
            plain.tib.records_vec(),
            sealing.tib.records_vec(),
            "records diverged at seal_after={seal_after}"
        );
        assert_eq!(
            plain.drain_standing_events(),
            sealing.drain_standing_events(),
            "standing events diverged at seal_after={seal_after}"
        );
        assert_eq!(
            plain.drain_alarms(),
            sealing.drain_alarms(),
            "alarms diverged at seal_after={seal_after}"
        );
        for q in [
            Query::TopK {
                k: 8,
                range: TimeRange::ANY,
            },
            Query::GetFlows {
                link: LinkPattern::ANY,
                range: TimeRange::ANY,
            },
            Query::GetFlows {
                link: LinkPattern::ANY,
                range: TimeRange::until(Nanos::from_millis(20)),
            },
        ] {
            assert_eq!(
                plain.execute(&fab, &q, false),
                sealing.execute(&fab, &q, false),
                "query diverged at seal_after={seal_after}"
            );
        }
    }
}

/// Reader threads run `execute_on_tib` over published views while the
/// agent ingests packets and the head seals underneath them. Views must
/// be monotone (never lose records) and every answer internally
/// consistent; the final view must agree with the agent's own store.
#[test]
fn readers_query_agent_store_during_ingest() {
    let (ft, fab, policy) = fabric();
    let pkts = stream(&ft, &policy, 64);
    let dst = ft.host(1, 0, 0);

    let mut agent = HostAgent::new(dst, AgentConfig::default());
    agent.tib.set_seal_after(Some(2));
    let reader = agent.tib.reader();
    const READERS: usize = 3;
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let r = reader.clone();
            let (start, done) = (&start, &done);
            s.spawn(move || {
                start.wait();
                let mut last = 0usize;
                while !done.load(Ordering::Acquire) {
                    let view = r.snapshot();
                    let n = view.num_records();
                    assert!(n >= last, "published view went backwards");
                    last = n;
                    let flows = match execute_on_tib(
                        &*view,
                        &Query::GetFlows {
                            link: LinkPattern::ANY,
                            range: TimeRange::ANY,
                        },
                    ) {
                        pathdump_core::Response::Flows(f) => f,
                        other => panic!("unexpected response {other:?}"),
                    };
                    // A sealed prefix can't mention more flows than it
                    // holds records.
                    assert!(flows.len() <= n);
                    match execute_on_tib(
                        &*view,
                        &Query::TopK {
                            k: 4,
                            range: TimeRange::ANY,
                        },
                    ) {
                        pathdump_core::Response::TopK { entries, .. } => {
                            assert!(entries.len() <= 4)
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        }

        let (start, done) = (&start, &done);
        let (fab, pkts) = (&fab, &pkts);
        let agent = &mut agent;
        s.spawn(move || {
            start.wait();
            for (pkt, now) in pkts {
                agent.on_packet(fab, pkt, *now);
            }
            agent.flush(fab, Nanos::from_millis(10_000));
            done.store(true, Ordering::Release);
        });
    });

    // Post-ingest: the published view is exactly the sealed prefix, and
    // a final seal brings it flush with the whole store.
    agent.tib.seal();
    let view = reader.snapshot();
    assert_eq!(view.num_records(), agent.tib.num_records());
    assert_eq!(
        view.get_flows(LinkPattern::ANY, TimeRange::ANY),
        agent.tib.get_flows(LinkPattern::ANY, TimeRange::ANY)
    );
    assert_eq!(
        view.top_k_flows(8, TimeRange::ANY),
        agent.tib.top_k_flows(8, TimeRange::ANY)
    );
    assert!(!agent.tib.is_empty());
}
