//! A reply whose coverage is not exactly the subtree its parent asked is
//! never merged. A reply that leaves a host out of its classes would drop
//! that host from the outcome while the query reads complete; one that
//! names a host nobody asked would put it in. Either way the plane counts
//! a protocol error and the subtree ends missed or timed out, so the
//! outcome is the flat fold of the hosts that did answer and its coverage
//! partitions the hosts asked, on a direct query and on a tree.

use pathdump_core::{build_tree, execute_on_tib, Query, Response, TreeNode};
use pathdump_rpc::{
    Channel, Delivery, Loopback, NodeId, QueryOutcome, ReplyMsg, RpcConfig, TreePlane,
    FRAME_RPC_REPLY,
};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::{from_bytes, Frame};

const HOSTS: usize = 12;

/// The host whose replies are changed on the way up: a leaf of the direct
/// query, and over `[3, 2, 2]` the aggregator of hosts 9 and 10.
const TAMPERED: usize = 3;

/// A host no query asks.
const STRANGER: u32 = 99;

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

/// How a reply's coverage is changed.
#[derive(Clone, Copy, Debug)]
enum Change {
    /// `TAMPERED` is left out of `answered`.
    Omit,
    /// `STRANGER` is added to `answered`.
    Add,
}

/// `Loopback`, except that every reply frame `from` sends carries its
/// coverage changed by `change`, CRC intact.
struct Tamper {
    inner: Loopback,
    from: NodeId,
    change: Change,
}

impl Channel for Tamper {
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos) {
        let (typ, payload, _) = Frame::parse(&bytes).expect("the plane sends valid frames");
        if from != self.from || typ != FRAME_RPC_REPLY {
            return self.inner.send(from, to, bytes, now);
        }
        let mut msg: ReplyMsg = from_bytes(payload).expect("a valid reply");
        let answered = &mut msg.coverage.answered;
        match self.change {
            Change::Omit => answered.retain(|&h| h != TAMPERED as u32),
            Change::Add => answered.push(STRANGER),
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

/// The hosts of the subtree rooted at `TAMPERED` in the tree the plane
/// builds over `fanouts`.
fn tampered_subtree(fanouts: &[usize]) -> Vec<u32> {
    fn find(nodes: &[TreeNode]) -> Option<&TreeNode> {
        nodes.iter().find_map(|n| {
            (n.host == TAMPERED)
                .then_some(n)
                .or_else(|| find(&n.children))
        })
    }
    fn hosts(n: &TreeNode, out: &mut Vec<u32>) {
        out.push(n.host as u32);
        n.children.iter().for_each(|c| hosts(c, out));
    }
    let roots = build_tree(&(0..HOSTS).collect::<Vec<_>>(), fanouts);
    let mut out = Vec::new();
    hosts(find(&roots).expect("every host is in the tree"), &mut out);
    out.sort_unstable();
    out
}

/// Every host but the tampered subtree answered, the answer is the fold of
/// exactly the answered hosts, the coverage partitions the hosts asked, and
/// the plane saw a protocol error.
fn assert_subtree_left_out(out: &QueryOutcome, protocol_errors: u64, lost: &[u32], q: &Query) {
    let others: Vec<u32> = (0..HOSTS as u32).filter(|h| !lost.contains(h)).collect();
    assert_eq!(out.coverage.answered, others, "{q:?}");
    let mut fold = Response::empty_for(q);
    for &h in &out.coverage.answered {
        fold.merge(execute_on_tib(&tib(h as usize), q));
    }
    assert_eq!(out.response, fold, "{q:?}");
    assert!(out
        .coverage
        .partitions(&(0..HOSTS as u32).collect::<Vec<_>>()));
    assert!(protocol_errors >= 1, "{q:?}");
}

fn run(q: &Query, fanouts: &[usize], change: Change) {
    let channel = Tamper {
        inner: Loopback::default(),
        from: TAMPERED as NodeId,
        change,
    };
    let tibs = (0..HOSTS).map(tib).collect();
    let mut plane = TreePlane::new(channel, RpcConfig::default(), tibs);
    let id = plane.submit(q, &(0..HOSTS).collect::<Vec<_>>(), fanouts);
    let out = plane.run(id).expect("deadlines guarantee completion");
    let lost = tampered_subtree(fanouts);
    assert_subtree_left_out(&out, plane.stats().protocol_errors, &lost, q);
}

#[test]
fn a_reply_that_omits_a_host_is_not_merged() {
    for q in [fsd(), top_k()] {
        for fanouts in [vec![HOSTS], vec![3, 2, 2]] {
            run(&q, &fanouts, Change::Omit);
        }
    }
}

#[test]
fn a_reply_that_adds_a_host_is_not_merged() {
    for q in [fsd(), top_k()] {
        for fanouts in [vec![HOSTS], vec![3, 2, 2]] {
            run(&q, &fanouts, Change::Add);
        }
    }
}

#[test]
fn the_tampered_host_roots_a_subtree_of_the_tree() {
    assert_eq!(tampered_subtree(&[HOSTS]), vec![TAMPERED as u32]);
    assert_eq!(tampered_subtree(&[3, 2, 2]), vec![3, 9, 10]);
}
