//! The Controller API's `execute(hosts, query)` against the per-host fold
//! it must equal: `Response::empty_for(q)` merged with each listed host's
//! local answer, which is `HostAgent::execute` for every TIB query and the
//! host's own poorly performing TCP flows for `getPoorTCPFlows`.
//!
//! The population is a k = 4 fat-tree with a dozen flows, one of them from
//! a sender whose uplinks are blackholed, queried once mid-run (records
//! still in trajectory memory, so `include_live` changes answers) and once
//! after every memory is flushed.

use pathdump::prelude::*;
use std::sync::Arc;

/// The answer `execute` must give: today's per-host loop, kept here.
fn fold(world: &mut PathDumpWorld, hosts: &[HostId], q: &Query, live: bool) -> Response {
    let mut acc = Response::empty_for(q);
    for &h in hosts {
        let local = match q {
            Query::GetPoorTcp { threshold } => Response::Flows(
                world
                    .tcp
                    .reports()
                    .filter(|r| r.src == h && r.completed_at.is_none())
                    .filter(|r| r.consecutive_retrans > *threshold)
                    .map(|r| r.flow)
                    .collect(),
            ),
            _ => {
                let fabric = Arc::clone(&world.fabric);
                world.agents[h.index()].execute(&fabric, q, live)
            }
        };
        acc.merge(local);
    }
    acc
}

/// The system under test: the controller's `execute`, which on the
/// lossless plane it runs must hear every listed host in time.
fn controller(world: &mut PathDumpWorld, hosts: &[HostId], q: &Query, live: bool) -> Response {
    let out = pathdump::rpc::execute(world, hosts, q, live);
    let mut asked: Vec<u32> = hosts.iter().map(|h| h.0).collect();
    asked.sort_unstable();
    asked.dedup();
    assert!(out.coverage.is_complete(), "{q:?}: {:?}", out.coverage);
    assert_eq!(out.coverage.answered, asked);
    assert!(out.deadline_met);
    out.response
}

/// The blackholed sender, its flow and a healthy flow with its receiver.
struct Population {
    tb: Testbed,
    stalled: FlowId,
    healthy: FlowId,
    healthy_dst: HostId,
}

fn population() -> Population {
    let mut tb = Testbed::default_k4();
    let ft = tb.ft.clone();
    // Blackhole both uplinks of ToR (0,0): flows from its hosts stall.
    for a in 0..2 {
        tb.sim.set_directed_fault(
            ft.tor(0, 0),
            ft.agg(0, a),
            FaultState {
                blackhole: true,
                ..FaultState::HEALTHY
            },
        );
    }
    let stalled_src = ft.host(0, 0, 0);
    tb.add_flow(stalled_src, ft.host(1, 0, 0), 4500, 100_000, Nanos::ZERO);
    // Eleven healthy flows between hosts outside ToR (0,0), staggered so
    // some are still in flight at the mid-run query.
    let others = [
        (ft.host(0, 1, 0), ft.host(2, 0, 0)),
        (ft.host(0, 1, 1), ft.host(3, 1, 1)),
        (ft.host(1, 0, 1), ft.host(2, 1, 0)),
        (ft.host(1, 1, 0), ft.host(3, 0, 0)),
        (ft.host(1, 1, 1), ft.host(0, 1, 0)),
        (ft.host(2, 0, 1), ft.host(1, 0, 0)),
        (ft.host(2, 1, 1), ft.host(3, 0, 1)),
        (ft.host(3, 0, 0), ft.host(2, 0, 1)),
        (ft.host(3, 1, 0), ft.host(1, 1, 1)),
        (ft.host(2, 0, 0), ft.host(2, 1, 1)),
        (ft.host(3, 1, 1), ft.host(0, 1, 1)),
    ];
    for (i, &(src, dst)) in others.iter().enumerate() {
        let size = 40_000 + 90_000 * (i as u64 % 4);
        let start = Nanos::from_millis(150 * i as u64);
        tb.add_flow(src, dst, 4501 + i as u16, size, start);
    }
    let (healthy_src, healthy_dst) = others[0];
    Population {
        stalled: tb.flow(stalled_src, ft.host(1, 0, 0), 4500),
        healthy: tb.flow(healthy_src, healthy_dst, 4501),
        healthy_dst,
        tb,
    }
}

/// All nine query kinds, over `ANY` and one bounded range.
fn queries(p: &Population) -> Vec<Query> {
    let tor = p.tb.ft.topology().host(p.healthy_dst).tor;
    let mut out = vec![
        Query::GetPoorTcp { threshold: 0 },
        Query::GetPoorTcp { threshold: 2 },
    ];
    for range in [
        TimeRange::ANY,
        TimeRange::between(Nanos::from_millis(300), Nanos::from_millis(900)),
    ] {
        for link in [LinkPattern::ANY, LinkPattern::into(tor)] {
            out.push(Query::GetFlows { link, range });
            out.push(Query::FlowSizeDist {
                link,
                range,
                bin_bytes: 10_000,
            });
        }
        for flow in [p.healthy, p.stalled] {
            out.push(Query::GetPaths {
                flow,
                link: LinkPattern::ANY,
                range,
            });
            out.push(Query::GetCount {
                flow,
                path: None,
                range,
            });
            out.push(Query::GetDuration {
                flow,
                path: None,
                range,
            });
        }
        for k in [1, 5, 1_000] {
            out.push(Query::TopK { k, range });
        }
        out.push(Query::TrafficMatrix { range });
        out.push(Query::HeavyHitters {
            min_bytes: 50_000,
            range,
        });
    }
    out
}

/// Every host, one host, and an unsorted five-host subset.
fn host_sets() -> Vec<Vec<HostId>> {
    vec![
        (0..16).map(HostId).collect(),
        vec![HostId(11)],
        [9, 2, 14, 0, 5].map(HostId).to_vec(),
    ]
}

/// Checks every query on every host set, both with and without the live
/// memory; returns how many queries answered differently with it.
fn check_all(p: &mut Population) -> usize {
    let qs = queries(p);
    let mut live_changed = 0;
    for q in &qs {
        for hosts in host_sets() {
            let mut answers = Vec::new();
            for live in [false, true] {
                let want = fold(&mut p.tb.sim.world, &hosts, q, live);
                let got = controller(&mut p.tb.sim.world, &hosts, q, live);
                assert_eq!(got, want, "{q:?} on {hosts:?}, live {live}");
                answers.push(got);
            }
            live_changed += usize::from(answers[0] != answers[1]);
        }
    }
    live_changed
}

#[test]
fn execute_equals_the_per_host_fold_mid_run() {
    let mut p = population();
    p.tb.sim.run_until(Nanos::from_millis(1_200));
    let poor = controller(
        &mut p.tb.sim.world,
        &[HostId(0)],
        &Query::GetPoorTcp { threshold: 0 },
        false,
    );
    assert_eq!(poor, Response::Flows(vec![p.stalled]));
    assert!(
        check_all(&mut p) > 0,
        "mid-run, the live memory must change some answer"
    );
}

#[test]
fn execute_equals_the_per_host_fold_after_flush() {
    let mut p = population();
    p.tb.run_and_flush(Nanos::from_secs(8));
    let flows = controller(
        &mut p.tb.sim.world,
        &host_sets()[0],
        &Query::GetFlows {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
        },
        false,
    );
    let Response::Flows(flows) = flows else {
        panic!("wrong response shape");
    };
    assert!(flows.contains(&p.healthy));
    assert_eq!(check_all(&mut p), 0, "nothing is left in trajectory memory");
}

/// A host listed twice is asked once: a summed answer does not double.
#[test]
fn a_repeated_host_is_asked_once() {
    let mut p = population();
    p.tb.run_and_flush(Nanos::from_secs(8));
    let dst = p.healthy_dst;
    for q in [
        Query::GetCount {
            flow: p.healthy,
            path: None,
            range: TimeRange::ANY,
        },
        Query::FlowSizeDist {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
            bin_bytes: 10_000,
        },
        Query::TrafficMatrix {
            range: TimeRange::ANY,
        },
    ] {
        let once = controller(&mut p.tb.sim.world, &[dst], &q, false);
        assert_ne!(once, Response::empty_for(&q), "{q:?}");
        let twice = controller(&mut p.tb.sim.world, &[dst, dst], &q, false);
        assert_eq!(twice, once, "{q:?}");
    }
}

/// A host id with no agent behind it is reported missed, with nothing in
/// the answer for it, and the hosts beside it still answer.
#[test]
fn a_host_without_an_agent_is_missed() {
    let mut p = population();
    p.tb.run_and_flush(Nanos::from_secs(8));
    let dst = p.healthy_dst;
    let q = Query::GetCount {
        flow: p.healthy,
        path: None,
        range: TimeRange::ANY,
    };
    let alone = pathdump::rpc::execute(&mut p.tb.sim.world, &[HostId(16)], &q, false);
    assert_eq!(alone.response, Response::empty_for(&q));
    assert_eq!(alone.coverage.missed, vec![16]);
    assert!(alone.coverage.answered.is_empty());
    let beside = pathdump::rpc::execute(&mut p.tb.sim.world, &[HostId(99), dst], &q, false);
    assert_eq!(beside.coverage.missed, vec![99]);
    assert_eq!(beside.coverage.answered, vec![dst.0]);
    assert_eq!(
        beside.response,
        fold(&mut p.tb.sim.world, &[dst], &q, false)
    );
}

/// Moved here from the world's unit tests.
#[test]
fn execute_merges_across_hosts() {
    let mut tb = Testbed::default_k4();
    let ft = tb.ft.clone();
    let pairs = [
        (ft.host(0, 0, 0), ft.host(1, 0, 0), 5000u16),
        (ft.host(0, 0, 1), ft.host(2, 0, 0), 5001),
        (ft.host(0, 1, 0), ft.host(3, 0, 0), 5002),
    ];
    for &(src, dst, sport) in &pairs {
        tb.add_flow(src, dst, sport, 50_000, Nanos::ZERO);
    }
    tb.sim.run_until(Nanos::from_secs(20));
    assert!(tb.sim.world.tcp.all_complete());
    tb.sim.world.flush_all(Nanos::from_secs(20));
    let all_hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let resp = controller(
        &mut tb.sim.world,
        &all_hosts,
        &Query::GetFlows {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
        },
        false,
    );
    let Response::Flows(flows) = resp else {
        panic!("wrong response shape");
    };
    // All 3 data flows plus their 3 ACK flows.
    for (_, _, sport) in pairs {
        assert!(flows.iter().any(|f| f.src_port == sport));
    }
    assert!(flows.len() >= 6);
}
