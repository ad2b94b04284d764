//! A reply whose shape disagrees with its query is never merged. A
//! histogram of another bin width, or a top-k of another `k`, is the
//! right variant but no part of the answer asked for: the plane counts it
//! as a protocol error and reports its host in `Coverage` as not answered,
//! whether the host's own answer has the wrong shape or a frame on the way
//! up was changed. The rest of the answer is the flat fold of the hosts
//! that did answer, on a direct query and on a tree.

use pathdump_core::{execute_on_tib, HostService, Query, Response};
use pathdump_rpc::{
    Channel, Delivery, Loopback, NodeId, QueryOutcome, ReplyMsg, RpcConfig, TreePlane,
    FRAME_RPC_REPLY,
};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::{from_bytes, Frame};

const HOSTS: usize = 12;

/// The host whose answers have the wrong shape.
const BAD: usize = 5;

fn tib(h: usize) -> Tib {
    let mut t = Tib::new();
    for i in 0..8u16 {
        t.insert(TibRecord {
            flow: FlowId::tcp(
                Ip::new(10, h as u8, 0, 2),
                1000 + i,
                Ip::new(10, 99, 1, 2),
                80,
            ),
            path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
            stime: Nanos(u64::from(i)),
            etime: Nanos(u64::from(i) + 10),
            bytes: 7_000 * h as u64 + 3_000 * u64::from(i),
            pkts: 1,
        });
    }
    t
}

fn fsd() -> Query {
    Query::FlowSizeDist {
        link: LinkPattern::ANY,
        range: TimeRange::ANY,
        bin_bytes: 10_000,
    }
}

fn top_k() -> Query {
    Query::TopK {
        k: 20,
        range: TimeRange::ANY,
    }
}

/// `q` with a bin width of 1, or a `k` one larger.
fn reshaped(q: &Query) -> Query {
    match *q {
        Query::FlowSizeDist { link, range, .. } => Query::FlowSizeDist {
            link,
            range,
            bin_bytes: 1,
        },
        Query::TopK { k, range } => Query::TopK { k: k + 1, range },
        ref q => panic!("no other shape for {q:?}"),
    }
}

/// A store whose host answers `reshaped` queries when `bad` is set.
struct Host {
    tib: Tib,
    bad: bool,
}

impl HostService for Host {
    fn answer(&mut self, q: &Query) -> Response {
        if self.bad {
            execute_on_tib(&self.tib, &reshaped(q))
        } else {
            execute_on_tib(&self.tib, q)
        }
    }
}

/// `Loopback`, except that every reply frame `from` sends carries its
/// response reshaped: a wider histogram bin or a larger `k`, CRC intact.
struct Reshape {
    inner: Loopback,
    from: NodeId,
}

impl Channel for Reshape {
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos) {
        let (typ, payload, _) = Frame::parse(&bytes).expect("the plane sends valid frames");
        if from != self.from || typ != FRAME_RPC_REPLY {
            return self.inner.send(from, to, bytes, now);
        }
        let mut msg: ReplyMsg = from_bytes(payload).expect("a valid reply");
        match &mut msg.response {
            Response::Hist { bin_bytes, .. } => *bin_bytes += 1,
            Response::TopK { k, .. } => *k += 1,
            r => panic!("no other shape for {r:?}"),
        }
        self.inner
            .send(from, to, Frame::build(FRAME_RPC_REPLY, &msg), now);
    }
    fn next_delivery_at(&self) -> Option<Nanos> {
        self.inner.next_delivery_at()
    }
    fn recv_due(&mut self, now: Nanos) -> Option<Delivery> {
        self.inner.recv_due(now)
    }
    fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }
    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
}

/// The flat fold of every host's answer but `BAD`'s.
fn fold_without_bad(q: &Query) -> Response {
    let mut acc = Response::empty_for(q);
    for h in (0..HOSTS).filter(|&h| h != BAD) {
        acc.merge(execute_on_tib(&tib(h), q));
    }
    acc
}

/// The answer leaves `BAD` out and nothing else: every other host answered,
/// `BAD` is accounted for but not answered, and the plane saw at least one
/// protocol error.
fn assert_bad_left_out(out: &QueryOutcome, protocol_errors: u64, q: &Query) {
    assert_eq!(out.response, fold_without_bad(q), "{q:?}");
    let others: Vec<u32> = (0..HOSTS as u32).filter(|&h| h != BAD as u32).collect();
    assert_eq!(out.coverage.answered, others, "{q:?}");
    assert!(out
        .coverage
        .partitions(&(0..HOSTS as u32).collect::<Vec<_>>()));
    assert!(protocol_errors >= 1, "{q:?}");
}

#[test]
fn a_host_answering_another_bin_width_or_k_is_not_merged() {
    let hosts: Vec<usize> = (0..HOSTS).collect();
    for q in [fsd(), top_k()] {
        for fanouts in [vec![HOSTS], vec![3, 2, 2]] {
            let services = (0..HOSTS)
                .map(|h| Host {
                    tib: tib(h),
                    bad: h == BAD,
                })
                .collect();
            let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), services);
            let id = plane.submit(&q, &hosts, &fanouts);
            let out = plane.run(id).expect("deadlines guarantee completion");
            assert_bad_left_out(&out, plane.stats().protocol_errors, &q);
        }
    }
}

#[test]
fn a_reply_reshaped_on_the_way_up_is_not_merged() {
    let hosts: Vec<usize> = (0..HOSTS).collect();
    for q in [fsd(), top_k()] {
        let channel = Reshape {
            inner: Loopback::default(),
            from: BAD as NodeId,
        };
        let tibs = (0..HOSTS).map(tib).collect();
        let mut plane = TreePlane::new(channel, RpcConfig::default(), tibs);
        // Direct, so that `BAD`'s reply carries its own answer only.
        let id = plane.submit(&q, &hosts, &[HOSTS]);
        let out = plane.run(id).expect("deadlines guarantee completion");
        assert_bad_left_out(&out, plane.stats().protocol_errors, &q);
    }
}
