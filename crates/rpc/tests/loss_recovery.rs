//! One lost frame, deterministically. `FaultyChannel` draws probabilities,
//! so the chaos suite shows a lost frame is *accounted*; this suite shows
//! what the one resend path (`rto` retry, reply cache) *recovers*, and the
//! one loss it does not: a scripted channel with `Loopback` timing drops
//! exactly the n-th frame sent, and the run is compared with the lossless
//! run of the same query.

use pathdump_core::{build_tree, execute_on_tib, MgmtNet, Query, Response, TreeNode};
use pathdump_rpc::{
    Channel, Delivery, Loopback, NodeId, PlaneStats, QueryOutcome, RpcConfig, TreePlane,
    FRAME_RPC_REPLY, FRAME_RPC_REQUEST,
};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::Frame;

/// `(from, to, frame type, wire bytes)` of one `send`.
type Sent = (NodeId, NodeId, u16, usize);

/// `Loopback`, except that the `drop_nth` frame handed to `send` (counted
/// from 1) is never delivered.
struct DropNth {
    inner: Loopback,
    drop_nth: Option<usize>,
    log: Vec<Sent>,
}

impl Channel for DropNth {
    fn send(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, now: Nanos) {
        let (frame, _) = Frame::from_wire(&bytes).expect("the plane sends valid frames");
        self.log.push((from, to, frame.typ, bytes.len()));
        if Some(self.log.len()) != self.drop_nth {
            self.inner.send(from, to, bytes, now);
        }
    }
    fn next_delivery_at(&self) -> Option<Nanos> {
        self.inner.next_delivery_at()
    }
    fn recv_due(&mut self, now: Nanos) -> Option<Delivery> {
        self.inner.recv_due(now)
    }
    fn frames_sent(&self) -> u64 {
        self.log.len() as u64
    }
    fn bytes_sent(&self) -> u64 {
        self.log.iter().map(|s| s.3 as u64).sum()
    }
}

const HOSTS: usize = 14;
/// Two roots, four level-2 aggregators, eight leaves.
const FANOUTS: [usize; 3] = [2, 2, 2];

fn tibs() -> Vec<Tib> {
    (0..HOSTS)
        .map(|h| {
            let mut t = Tib::new();
            for i in 0..6 {
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
                    bytes: 1000 * h as u64 + u64::from(i),
                    pkts: 1,
                });
            }
            t
        })
        .collect()
}

struct Run {
    out: QueryOutcome,
    stats: PlaneStats,
    log: Vec<Sent>,
}

fn query() -> Query {
    Query::TopK {
        k: 20,
        range: TimeRange::ANY,
    }
}

fn run(drop_nth: Option<usize>) -> Run {
    let channel = DropNth {
        inner: Loopback::default(),
        drop_nth,
        log: Vec::new(),
    };
    let mut plane = TreePlane::new(channel, RpcConfig::default(), tibs());
    let hosts: Vec<usize> = (0..HOSTS).collect();
    let id = plane.submit(&query(), &hosts, &FANOUTS);
    let out = plane.run(id).expect("deadlines guarantee completion");
    plane.run_until_idle();
    Run {
        out,
        stats: plane.stats(),
        log: plane.channel().log.clone(),
    }
}

/// The reference run: nothing dropped, nothing resent.
fn lossless() -> Run {
    let run = run(None);
    assert!(run.out.coverage.is_complete());
    assert_eq!(run.stats, PlaneStats::default());
    run
}

/// The tree's first branch: a root, its first level-2 aggregator, and
/// that aggregator's first leaf.
fn first_branch() -> (TreeNode, TreeNode, TreeNode) {
    let hosts: Vec<usize> = (0..HOSTS).collect();
    let root = build_tree(&hosts, &FANOUTS).remove(0);
    let mid = root.children[0].clone();
    let leaf = mid.children[0].clone();
    assert!(leaf.children.is_empty(), "three levels");
    (root, mid, leaf)
}

/// Runs the query again with the first `from → to` frame of type `typ`
/// dropped (the lossy run is identical to the lossless one up to it).
fn run_without(lossless: &Run, from: &TreeNode, to: &TreeNode, typ: u16) -> Run {
    let wanted = (from.host as NodeId, to.host as NodeId, typ);
    let at = lossless
        .log
        .iter()
        .position(|&(f, t, ty, _)| (f, t, ty) == wanted);
    run(Some(1 + at.expect("the lossless run sends this frame")))
}

/// The lossy run recovered: complete, the lossless answer bit for bit,
/// one retry, `cache_replies` and `extra_frames` as given and nothing else
/// counted, and no later than one `rto` plus one round trip after the
/// lossless run.
fn assert_recovered(lossless: &Run, lossy: &Run, cache_replies: u64, extra_frames: usize) {
    assert!(lossy.out.coverage.is_complete(), "{:?}", lossy.out.coverage);
    assert_eq!(lossy.out.response, lossless.out.response);
    assert_eq!(
        lossy.stats,
        PlaneStats {
            retries: 1,
            cache_replies,
            ..PlaneStats::default()
        }
    );
    assert_eq!(lossy.log.len(), lossless.log.len() + extra_frames);
    let largest = lossless.log.iter().map(|s| s.3).max().unwrap_or(0);
    let round_trip = Nanos(2 * MgmtNet::default().transfer(largest).0);
    let bound = lossless.out.elapsed + RpcConfig::default().rto + round_trip;
    assert!(
        lossy.out.elapsed > lossless.out.elapsed && lossy.out.elapsed <= bound,
        "lossless {:?}, lossy {:?}, bound {bound:?}",
        lossless.out.elapsed,
        lossy.out.elapsed
    );
}

/// The parent's `rto` fires once; the leaf executes once.
#[test]
fn lost_request_to_a_leaf_is_resent_once() {
    let (_, mid, leaf) = first_branch();
    let lossless = lossless();
    let lossy = run_without(&lossless, &mid, &leaf, FRAME_RPC_REQUEST);
    assert_recovered(&lossless, &lossy, 0, 1);
}

/// The parent's `rto` fires once; the leaf answers the duplicate request
/// from its reply cache without executing again.
#[test]
fn lost_leaf_reply_is_resent_from_the_reply_cache() {
    let (_, mid, leaf) = first_branch();
    let lossless = lossless();
    let lossy = run_without(&lossless, &leaf, &mid, FRAME_RPC_REPLY);
    assert_recovered(&lossless, &lossy, 1, 2);
}

/// **Not recovered, and says so.** An interior node acks before it
/// aggregates and the ack parks its parent's only resend timer, so nothing
/// re-asks for a reply lost after the ack. The parent waits out its own
/// deadline and reports the whole subtree timed-out; nothing is re-sent,
/// the children are not re-queried, and the partial answer is exactly the
/// answered hosts'. ROADMAP 2(a) carries the fix.
#[test]
fn lost_interior_reply_times_out_its_subtree_and_says_so() {
    let (root, mid, _) = first_branch();
    let lossless = lossless();
    let lossy = run_without(&lossless, &mid, &root, FRAME_RPC_REPLY);
    assert_eq!(lossy.stats, PlaneStats::default());
    assert_eq!(lossy.log.len(), lossless.log.len());

    let mut lost: Vec<u32> = vec![mid.host as u32];
    lost.extend(mid.children.iter().map(|c| c.host as u32));
    lost.sort_unstable();
    let cov = &lossy.out.coverage;
    assert_eq!(cov.timed_out, lost);
    assert!(cov.missed.is_empty() && cov.partitions(&lossy.out.hosts));

    let tibs = tibs();
    let mut answered = Response::empty_for(&query());
    for &h in &cov.answered {
        answered.merge(execute_on_tib(&tibs[h as usize], &query()));
    }
    assert_eq!(lossy.out.response, answered);
    let cfg = RpcConfig::default();
    assert!(lossy.out.deadline_met);
    assert!(lossy.out.elapsed >= Nanos(cfg.deadline.0 - cfg.hop_slack.0));
}
