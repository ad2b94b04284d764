//! Regression: a host index listed twice in `TreePlane::submit` used to
//! become two tree nodes with one channel address. The second node's
//! request hit the first one's in-flight aggregation, so the host landed
//! in both `answered` and `missed` after burning every retry — and as a
//! chain (`fanouts = [1, 1, ..]`) the duplicate sat below itself and the
//! whole query ran into the deadline with an empty answer.
//!
//! And a host index past the last host used to vanish from the outcome:
//! the query reported `COMPLETE` over the hosts it could reach — a silent
//! partial answer. Such an index is now reported missed.

use pathdump_core::{execute_on_tib, Query, Response};
use pathdump_rpc::{Loopback, RpcConfig, TreePlane};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId, TimeRange};

const BYTES_PER_HOST: u64 = 1000;

fn flow() -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), 1000, Ip::new(10, 9, 0, 2), 80)
}

/// Every host holds one record of the same flow, so `GetCount` over `n`
/// distinct hosts is exactly `n` records' worth.
fn tibs(n: usize) -> Vec<Tib> {
    (0..n)
        .map(|_| {
            let mut t = Tib::new();
            t.insert(TibRecord {
                flow: flow(),
                path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
                stime: Nanos(1),
                etime: Nanos(10),
                bytes: BYTES_PER_HOST,
                pkts: 1,
            });
            t
        })
        .collect()
}

#[test]
fn repeated_host_is_queried_once() {
    let q = Query::GetCount {
        flow: flow(),
        path: None,
        range: TimeRange::ANY,
    };
    for fanouts in [&[7usize, 4, 4][..], &[1, 1, 1, 1], &[2, 2]] {
        let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), tibs(3));
        let id = plane.submit(&q, &[0, 0, 1, 2, 1], fanouts);
        let out = plane.run(id).expect("deadlines guarantee completion");
        assert_eq!(
            out.response,
            Response::Count {
                bytes: 3 * BYTES_PER_HOST,
                pkts: 3
            },
            "fanouts {fanouts:?}: each distinct host counted once"
        );
        assert_eq!(out.hosts, vec![0, 1, 2]);
        assert!(out.coverage.partitions(&out.hosts), "{:?}", out.coverage);
        assert!(out.coverage.is_complete(), "{:?}", out.coverage);
        assert!(out.deadline_met);
        assert_eq!(plane.stats().retries, 0, "fanouts {fanouts:?}");
        assert_eq!(plane.stats().cache_replies, 0, "fanouts {fanouts:?}");
    }
}

#[test]
fn out_of_range_host_is_reported_missed() {
    let q = Query::GetCount {
        flow: flow(),
        path: None,
        range: TimeRange::ANY,
    };
    let data = tibs(4);
    let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), data.clone());
    let id = plane.submit(&q, &[0, 1, 99], &[7, 4, 4]);
    let out = plane.run(id).expect("deadlines guarantee completion");
    assert_eq!(out.coverage.missed, vec![99]);
    assert_eq!(out.coverage.answered, vec![0, 1]);
    assert!(out.coverage.timed_out.is_empty());
    assert_eq!(out.hosts, vec![0, 1, 99]);
    assert!(out.coverage.partitions(&out.hosts), "{:?}", out.coverage);
    let mut fold = Response::empty_for(&q);
    for h in [0, 1] {
        fold.merge(execute_on_tib(&data[h], &q));
    }
    assert_eq!(out.response, fold);
    assert!(!out.coverage.is_complete());
    assert_eq!(plane.stats().retries, 0, "nothing was sent to host 99");
}
