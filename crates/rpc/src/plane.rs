//! The poll-driven aggregation-tree query plane.
//!
//! [`TreePlane`] owns one [`AgentServer`](self) state machine per host plus
//! the controller, all exchanging wire frames over one [`Channel`], with
//! each node's own work charged by a [`Compute`]. See the crate docs for
//! the protocol semantics (timeouts, retries, deadlines, backpressure,
//! coverage).

use crate::channel::{Channel, Delivery, Loopback, NodeId, CONTROLLER};
use crate::compute::{Compute, Free};
use crate::coverage::Coverage;
use crate::msg::{AckMsg, ReplyMsg, RequestMsg, FRAME_RPC_ACK, FRAME_RPC_REPLY, FRAME_RPC_REQUEST};
use pathdump_core::{build_tree, HostService, PathDumpWorld, Query, Response, TreeNode};
use pathdump_tib::Tib;
use pathdump_topology::{HostId, Nanos};
use pathdump_wire::{from_bytes, Frame, WireError, WireResult};
use std::collections::{BTreeMap, VecDeque};

/// Identifies one submitted query (also the on-wire `req_id` shared by
/// every hop of that query).
pub type QueryId = u64;

/// Protocol knobs. All times are virtual.
#[derive(Clone, Copy, Debug)]
pub struct RpcConfig {
    /// Per-hop retransmit timeout for the first attempt.
    pub rto: Nanos,
    /// Resends after the first attempt before a child is written off.
    pub max_retries: u32,
    /// Multiplier applied to `rto` per attempt (exponential backoff).
    pub backoff_mult: u32,
    /// End-to-end budget per query, measured from admission.
    pub deadline: Nanos,
    /// Per-level deadline shrink: a child must reply this much earlier
    /// than its parent finalizes, leaving time for the reply to climb.
    pub hop_slack: Nanos,
    /// Outstanding child calls per aggregation (the rest queue).
    pub max_children_inflight: usize,
    /// Concurrently admitted queries at the controller (the rest queue).
    pub max_queries_inflight: usize,
    /// Per-agent cached replies kept for duplicate-request suppression.
    pub reply_cache_cap: usize,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            rto: Nanos::from_millis(2),
            max_retries: 3,
            backoff_mult: 2,
            deadline: Nanos::from_millis(200),
            hop_slack: Nanos::from_millis(5),
            max_children_inflight: 8,
            max_queries_inflight: 4,
            reply_cache_cap: 1024,
        }
    }
}

impl RpcConfig {
    /// Clamps degenerate values that would break timer progress.
    fn sanitized(mut self) -> Self {
        self.rto = self.rto.max(Nanos(1));
        self.deadline = self.deadline.max(Nanos(1));
        self.backoff_mult = self.backoff_mult.max(1);
        self.max_children_inflight = self.max_children_inflight.max(1);
        self.max_queries_inflight = self.max_queries_inflight.max(1);
        self.reply_cache_cap = self.reply_cache_cap.max(1);
        self
    }

    fn retry_interval(&self, attempt: u32) -> Nanos {
        let mult = (self.backoff_mult as u64).saturating_pow(attempt);
        Nanos(self.rto.0.saturating_mul(mult))
    }
}

/// Protocol-level counters (channel-level counts live on the channel).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlaneStats {
    /// Retransmits after an unanswered `rto`.
    pub retries: u64,
    /// Always 0: the plane does not hedge (a source-routed subtree has no
    /// second replica to ask, so a hedge was only an early retry). The
    /// field stays because `benchmark/` reads it.
    pub hedges: u64,
    /// Frames that failed CRC/decode and were dropped.
    pub decode_failures: u64,
    /// Well-formed frames that violated the protocol (unknown type, a
    /// response whose shape disagrees with its query, a reply whose
    /// coverage is not exactly the subtree asked, request addressed to the
    /// controller), and local answers of the wrong shape.
    pub protocol_errors: u64,
    /// Duplicate requests answered from the reply cache.
    pub cache_replies: u64,
    /// Duplicate requests ignored because execution was still in flight.
    pub duplicate_requests: u64,
    /// Replies that arrived after their subtree was written off.
    pub late_replies: u64,
}

/// The result of one query over the plane.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The merged (possibly partial) response.
    pub response: Response,
    /// Exact per-host accounting; see the crate docs for the guarantees.
    pub coverage: Coverage,
    /// The host set the query was submitted over (sorted).
    pub hosts: Vec<u32>,
    /// Admission → completion, in virtual time.
    pub elapsed: Nanos,
    /// Submission → admission wait under query backpressure.
    pub queued_wait: Nanos,
    /// Whether `elapsed` stayed within the configured deadline.
    pub deadline_met: bool,
}

#[derive(Clone, Copy, Debug)]
enum ChildState {
    /// Waiting for an in-flight slot (backpressure).
    Queued,
    /// Request sent, reply pending. `retry_at` is `None` once the child
    /// acked: it is known alive and only the deadline applies.
    Inflight {
        attempt: u32,
        retry_at: Option<Nanos>,
    },
    /// Reply merged.
    Done,
    /// Retries exhausted; subtree counted missed.
    Failed,
}

struct ChildCall {
    subtree: TreeNode,
    state: ChildState,
}

/// One in-progress aggregation at a node (agents run at most one per
/// `req_id`; distinct queries pipeline freely).
struct Agg {
    /// Where the merged reply goes (`None` at the controller).
    parent: Option<NodeId>,
    query: Query,
    finalize_at: Nanos,
    /// When the node's work on this query so far is paid for: its reply
    /// leaves no earlier. Always `now` under [`Free`].
    busy_until: Nanos,
    acc: Response,
    cov: Coverage,
    children: Vec<ChildCall>,
    queued: VecDeque<usize>,
    inflight: usize,
}

impl Agg {
    fn terminal(&self) -> bool {
        self.inflight == 0 && self.queued.is_empty()
    }
}

#[derive(Default)]
struct Node {
    aggs: BTreeMap<u64, Agg>,
    reply_cache: BTreeMap<u64, Vec<u8>>,
}

/// A submitted query waiting for an admission slot.
struct PendingSubmit {
    id: QueryId,
    query: Query,
    roots: Vec<TreeNode>,
    hosts: Vec<u32>,
    submitted_at: Nanos,
}

/// What the controller keeps of an admitted query until it completes.
struct Admitted {
    hosts: Vec<u32>,
    submitted_at: Nanos,
    admitted_at: Nanos,
}

/// A timer event, in deterministic firing order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TimerKind {
    Finalize,
    Retry(usize),
}

/// The fan-out/fan-in aggregation-tree driver: all agent state machines,
/// the controller, and the virtual clock. Each agent answers through its
/// own `T`'s [`HostService::answer`] — a store such as the flat [`Tib`] or
/// the agents' `TieredTib`, or a world's [`HostView`](pathdump_core::HostView)
/// — and `K` charges each node's query execution and merges to the clock.
pub struct TreePlane<C: Channel, T: HostService = Tib, K: Compute = Free> {
    cfg: RpcConfig,
    channel: C,
    compute: K,
    tibs: Vec<T>,
    agents: Vec<Node>,
    controller: Node,
    submit_queue: VecDeque<PendingSubmit>,
    admitted: BTreeMap<u64, Admitted>,
    outcomes: BTreeMap<u64, QueryOutcome>,
    now: Nanos,
    next_req: u64,
    stats: PlaneStats,
}

/// The Controller API's `execute(hosts, query)` on a world: one direct
/// query (every host a root) over a lossless [`Loopback`], each host
/// answering through its [`HostView`](pathdump_core::HostView). A repeated
/// host is asked once, and a host with no agent is reported in
/// `coverage.missed`.
pub fn execute(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    query: &Query,
    include_live: bool,
) -> QueryOutcome {
    let cfg = RpcConfig {
        rto: Nanos::from_secs(1),
        deadline: Nanos::from_secs(10),
        max_children_inflight: hosts.len(),
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::new(Loopback::default(), cfg, world.host_views(include_live));
    let index: Vec<usize> = hosts.iter().map(|h| h.index()).collect();
    let id = plane.submit(query, &index, &[index.len().max(1)]);
    // The controller's deadline completes every admitted query; a plane
    // that went idle first would have heard from no host.
    plane.run(id).unwrap_or_else(|| {
        let mut timed_out: Vec<u32> = hosts.iter().map(|h| h.0).collect();
        timed_out.sort_unstable();
        timed_out.dedup();
        QueryOutcome {
            response: Response::empty_for(query),
            coverage: Coverage {
                timed_out: timed_out.clone(),
                ..Coverage::new()
            },
            hosts: timed_out,
            elapsed: plane.now(),
            queued_wait: Nanos::ZERO,
            deadline_met: false,
        }
    })
}

fn subtree_hosts(node: &TreeNode, out: &mut Vec<u32>) {
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        out.push(n.host as u32);
        for c in &n.children {
            stack.push(c);
        }
    }
}

/// Whether `r` has the shape of an answer to `q`: its variant, and for a
/// histogram its bin width and for a top-k its `k`. An answer of another
/// shape cannot be merged into `q`'s.
fn fits(q: &Query, r: &Response) -> bool {
    match (Response::empty_for(q), r) {
        (Response::Hist { bin_bytes, .. }, Response::Hist { bin_bytes: b, .. }) => bin_bytes == *b,
        (Response::TopK { k, .. }, Response::TopK { k: k2, .. }) => k == *k2,
        (e, r) => std::mem::discriminant(&e) == std::mem::discriminant(r),
    }
}

impl<C: Channel, T: HostService> TreePlane<C, T> {
    /// A plane over one host service per host (index = host = channel
    /// address) whose nodes compute for free.
    pub fn new(channel: C, cfg: RpcConfig, tibs: Vec<T>) -> Self {
        TreePlane::with_compute(channel, cfg, tibs, Free)
    }
}

impl<C: Channel, T: HostService, K: Compute> TreePlane<C, T, K> {
    /// A plane whose nodes' work is charged by `compute`.
    pub fn with_compute(channel: C, cfg: RpcConfig, tibs: Vec<T>, compute: K) -> Self {
        let agents = (0..tibs.len()).map(|_| Node::default()).collect();
        TreePlane {
            cfg: cfg.sanitized(),
            channel,
            compute,
            tibs,
            agents,
            controller: Node::default(),
            submit_queue: VecDeque::new(),
            admitted: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            now: Nanos::ZERO,
            next_req: 1,
            stats: PlaneStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Protocol counters.
    pub fn stats(&self) -> PlaneStats {
        self.stats
    }

    /// The underlying channel (fault logs, traffic counters).
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// Effective (sanitized) configuration.
    pub fn config(&self) -> RpcConfig {
        self.cfg
    }

    /// Submits `query` over `hosts` with the given tree fan-outs. The
    /// query is admitted immediately if an in-flight slot is free,
    /// otherwise it queues (bounded pipelining). A repeated index is
    /// queried once; an index with no host behind it is reported missed and
    /// kept out of the tree, where it would take the hosts below it down.
    pub fn submit(&mut self, query: &Query, hosts: &[usize], fanouts: &[usize]) -> QueryId {
        let routable: Vec<usize> = hosts
            .iter()
            .copied()
            .filter(|&h| h < self.tibs.len())
            .collect();
        let roots = build_tree(&routable, fanouts);
        // An index past `u32` is no host either: `u32::MAX` labels it.
        let label = |&h: &usize| u32::try_from(h).unwrap_or(u32::MAX);
        let mut host_ids: Vec<u32> = hosts.iter().map(label).collect();
        host_ids.sort_unstable();
        host_ids.dedup();
        let id = self.next_req;
        self.next_req += 1;
        self.submit_queue.push_back(PendingSubmit {
            id,
            query: query.clone(),
            roots,
            hosts: host_ids,
            submitted_at: self.now,
        });
        self.try_admit();
        id
    }

    /// Removes and returns the finished outcome for `id`.
    pub fn take_outcome(&mut self, id: QueryId) -> Option<QueryOutcome> {
        self.outcomes.remove(&id)
    }

    /// Advances the virtual clock to the next event (channel delivery or
    /// protocol timer) and runs everything due. Returns `false` when the
    /// plane is idle.
    pub fn step(&mut self) -> bool {
        let mut next = self.channel.next_delivery_at();
        if let Some(t) = self.next_timer() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        let Some(t) = next else {
            return false;
        };
        if t > self.now {
            self.now = t;
        }
        loop {
            let mut progressed = false;
            while let Some(d) = self.channel.recv_due(self.now) {
                self.on_frame(d);
                progressed = true;
            }
            if let Some((owner, req_id, kind)) = self.pop_due_timer() {
                self.fire_timer(owner, req_id, kind);
                progressed = true;
            }
            if !progressed {
                return true;
            }
        }
    }

    /// Drives the plane until `id` completes; `None` only if the plane
    /// goes idle first (a protocol bug — deadlines guarantee completion).
    pub fn run(&mut self, id: QueryId) -> Option<QueryOutcome> {
        loop {
            if self.outcomes.contains_key(&id) {
                return self.take_outcome(id);
            }
            if !self.step() {
                return self.take_outcome(id);
            }
        }
    }

    /// Drives the plane until every event is drained.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    // --- admission -------------------------------------------------------

    fn try_admit(&mut self) {
        while self.admitted.len() < self.cfg.max_queries_inflight {
            let Some(pending) = self.submit_queue.pop_front() else {
                return;
            };
            let id = pending.id;
            let n_hosts = self.tibs.len();
            let unroutable = pending.hosts.iter().filter(|&&h| h as usize >= n_hosts);
            let missed: Vec<u32> = unroutable.copied().collect();
            self.admitted.insert(
                id,
                Admitted {
                    hosts: pending.hosts,
                    submitted_at: pending.submitted_at,
                    admitted_at: self.now,
                },
            );
            let children: Vec<ChildCall> = pending
                .roots
                .into_iter()
                .map(|subtree| ChildCall {
                    subtree,
                    state: ChildState::Queued,
                })
                .collect();
            let queued: VecDeque<usize> = (0..children.len()).collect();
            let mut agg = Agg {
                parent: None,
                finalize_at: self.now + self.cfg.deadline,
                busy_until: self.now,
                acc: Response::empty_for(&pending.query),
                query: pending.query,
                cov: Coverage {
                    missed,
                    ..Coverage::new()
                },
                children,
                queued,
                inflight: 0,
            };
            self.pump(CONTROLLER, id, &mut agg);
            if agg.terminal() {
                // No routable host: complete on the spot.
                self.complete_controller(id, agg);
            } else {
                self.controller.aggs.insert(id, agg);
            }
        }
    }

    // --- sending ---------------------------------------------------------

    /// Sends (or re-sends) the request for child `idx` of `agg`.
    fn send_request(&mut self, owner: NodeId, req_id: u64, agg: &Agg, idx: usize) {
        let child = &agg.children[idx].subtree;
        let child_deadline =
            Nanos(agg.finalize_at.0.saturating_sub(self.cfg.hop_slack.0)).max(self.now);
        let msg = RequestMsg {
            req_id,
            deadline: child_deadline,
            query: agg.query.clone(),
            subtree: child.clone(),
        };
        let wire = Frame::build(FRAME_RPC_REQUEST, &msg);
        self.channel
            .send(owner, child.host as NodeId, wire, self.now);
    }

    fn send_ack(&mut self, owner: NodeId, parent: NodeId, req_id: u64) {
        let wire = Frame::build(FRAME_RPC_ACK, &AckMsg { req_id });
        self.channel.send(owner, parent, wire, self.now);
    }

    /// Starts queued child calls while in-flight slots are free.
    fn pump(&mut self, owner: NodeId, req_id: u64, agg: &mut Agg) {
        while agg.inflight < self.cfg.max_children_inflight {
            let Some(idx) = agg.queued.pop_front() else {
                return;
            };
            let child_host = agg.children[idx].subtree.host;
            if child_host >= self.tibs.len() {
                // Unroutable child (cannot happen with a well-formed tree):
                // count its subtree missed without burning retries.
                let mut hosts = Vec::new();
                subtree_hosts(&agg.children[idx].subtree, &mut hosts);
                agg.cov.missed.extend(hosts);
                agg.children[idx].state = ChildState::Failed;
                continue;
            }
            self.send_request(owner, req_id, agg, idx);
            agg.children[idx].state = ChildState::Inflight {
                attempt: 0,
                retry_at: Some(self.now + self.cfg.retry_interval(0)),
            };
            agg.inflight += 1;
        }
    }

    // --- receiving -------------------------------------------------------

    fn on_frame(&mut self, d: Delivery) {
        if self.dispatch(&d).is_err() {
            self.stats.decode_failures += 1;
        }
    }

    /// Routes one frame to its handler; `Err` is a frame that failed its
    /// CRC or did not decode, and is dropped.
    fn dispatch(&mut self, d: &Delivery) -> WireResult<()> {
        let (typ, payload, used) = Frame::parse(&d.bytes)?;
        if used != d.bytes.len() {
            return Err(WireError::TrailingBytes(d.bytes.len() - used));
        }
        match typ {
            FRAME_RPC_REQUEST => {
                let msg = from_bytes::<RequestMsg>(payload)?;
                if d.to == CONTROLLER || (d.to as usize) >= self.agents.len() {
                    self.stats.protocol_errors += 1;
                } else {
                    self.on_request(d.to, d.from, msg);
                }
            }
            FRAME_RPC_REPLY => self.on_reply(d.to, d.from, from_bytes(payload)?),
            FRAME_RPC_ACK => self.on_ack(d.to, d.from, from_bytes(payload)?),
            _ => self.stats.protocol_errors += 1,
        }
        Ok(())
    }

    fn on_request(&mut self, to: NodeId, from: NodeId, msg: RequestMsg) {
        let me = to as usize;
        if msg.subtree.host != me {
            self.stats.protocol_errors += 1;
            return;
        }
        if let Some(cached) = self.agents[me].reply_cache.get(&msg.req_id) {
            // At-least-once delivery, at-most-once execution: duplicate
            // requests re-send the cached reply frame.
            let bytes = cached.clone();
            self.stats.cache_replies += 1;
            self.channel.send(to, from, bytes, self.now);
            return;
        }
        if self.agents[me].aggs.contains_key(&msg.req_id) {
            // Still aggregating: re-ack (the first ack may have been lost)
            // so the parent keeps waiting instead of retrying.
            self.stats.duplicate_requests += 1;
            self.send_ack(to, from, msg.req_id);
            return;
        }
        if !msg.subtree.children.is_empty() {
            // Non-leaf work can legitimately outlast many RTOs (e.g. its
            // own dead grandchildren burn retries first); the ack parks
            // the parent's retry clock. A leaf replies immediately below,
            // so its reply doubles as the ack.
            self.send_ack(to, from, msg.req_id);
        }
        // Forward, then execute: the child requests below leave at `now`
        // and only the reply waits for the local answer.
        let (local, cost) = self.compute.run(|| self.tibs[me].answer(&msg.query));
        // A local answer of the wrong shape is left out like a child's, and
        // the host is reported missed, not answered.
        let (acc, cov) = if fits(&msg.query, &local) {
            (local, Coverage::answered_one(me as u32))
        } else {
            self.stats.protocol_errors += 1;
            let missed = Coverage {
                missed: vec![me as u32],
                ..Coverage::new()
            };
            (Response::empty_for(&msg.query), missed)
        };
        let children: Vec<ChildCall> = msg
            .subtree
            .children
            .into_iter()
            .map(|subtree| ChildCall {
                subtree,
                state: ChildState::Queued,
            })
            .collect();
        let queued: VecDeque<usize> = (0..children.len()).collect();
        let mut agg = Agg {
            parent: Some(from),
            query: msg.query,
            finalize_at: msg.deadline,
            busy_until: self.now + cost,
            acc,
            cov,
            children,
            queued,
            inflight: 0,
        };
        self.pump(to, msg.req_id, &mut agg);
        if agg.terminal() {
            self.reply_up(to, msg.req_id, agg);
        } else {
            self.agents[me].aggs.insert(msg.req_id, agg);
        }
    }

    fn on_reply(&mut self, to: NodeId, from: NodeId, msg: ReplyMsg) {
        let Some(node) = self.node_mut(to) else {
            self.stats.protocol_errors += 1;
            return;
        };
        let Some(agg) = node.aggs.get_mut(&msg.req_id) else {
            // The aggregation already finalized (or never existed here):
            // a duplicate or post-deadline straggler.
            self.stats.late_replies += 1;
            return;
        };
        let Some(idx) = agg
            .children
            .iter()
            .position(|c| c.subtree.host == from as usize)
        else {
            self.stats.protocol_errors += 1;
            return;
        };
        if !matches!(agg.children[idx].state, ChildState::Inflight { .. }) {
            // Duplicate reply (retry or channel dup) or post-write-off.
            self.stats.late_replies += 1;
            return;
        }
        // A reply must be an answer to the query over exactly the subtree
        // asked: a coverage that drops or adds a host would take it out of
        // the outcome or put it in.
        let mut asked = Vec::new();
        subtree_hosts(&agg.children[idx].subtree, &mut asked);
        if !fits(&agg.query, &msg.response) || !msg.coverage.partitions(&asked) {
            self.stats.protocol_errors += 1;
            return;
        }
        agg.children[idx].state = ChildState::Done;
        agg.inflight -= 1;
        let Some(mut agg) = node.aggs.remove(&msg.req_id) else {
            return;
        };
        let ((), cost) = self.compute.run(|| agg.acc.merge(msg.response));
        agg.busy_until = agg.busy_until.max(self.now) + cost;
        agg.cov.absorb(msg.coverage);
        self.pump(to, msg.req_id, &mut agg);
        if agg.terminal() {
            self.finalize(to, msg.req_id, agg);
        } else {
            self.put_agg(to, msg.req_id, agg);
        }
    }

    fn on_ack(&mut self, to: NodeId, from: NodeId, msg: AckMsg) {
        let Some(node) = self.node_mut(to) else {
            self.stats.protocol_errors += 1;
            return;
        };
        let Some(agg) = node.aggs.get_mut(&msg.req_id) else {
            return; // Ack after finalize: nothing to park.
        };
        let Some(idx) = agg
            .children
            .iter()
            .position(|c| c.subtree.host == from as usize)
        else {
            self.stats.protocol_errors += 1;
            return;
        };
        if let ChildState::Inflight { retry_at, .. } = &mut agg.children[idx].state {
            *retry_at = None;
        }
    }

    // --- timers ----------------------------------------------------------

    /// Shows `visit` every armed timer `(due, owner, req_id, kind)` until it
    /// returns `Some`, in deterministic firing order: controller before
    /// agents, agents by index, aggregations by id; within one
    /// aggregation, finalize before the retries of its unacked children in
    /// order. Plain loops on purpose: the walk runs twice per event, and as
    /// a `flat_map` chain it added 30 % to the plane's time per query over
    /// 112 hosts.
    fn find_timer<R>(
        &self,
        mut visit: impl FnMut(Nanos, NodeId, u64, TimerKind) -> Option<R>,
    ) -> Option<R> {
        let agents = self.agents.iter().enumerate();
        let nodes = std::iter::once((CONTROLLER, &self.controller))
            .chain(agents.map(|(i, node)| (i as NodeId, node)));
        for (owner, node) in nodes {
            for (&req_id, agg) in &node.aggs {
                if let Some(r) = visit(agg.finalize_at, owner, req_id, TimerKind::Finalize) {
                    return Some(r);
                }
                for (idx, c) in agg.children.iter().enumerate() {
                    if let ChildState::Inflight {
                        retry_at: Some(due),
                        ..
                    } = c.state
                    {
                        if let Some(r) = visit(due, owner, req_id, TimerKind::Retry(idx)) {
                            return Some(r);
                        }
                    }
                }
            }
        }
        None
    }

    fn next_timer(&self) -> Option<Nanos> {
        let mut next: Option<Nanos> = None;
        self.find_timer(|due, _, _, _| {
            next = Some(next.map_or(due, |n| n.min(due)));
            None::<()>
        });
        next
    }

    /// The first timer due at or before `now`, in firing order.
    fn pop_due_timer(&self) -> Option<(NodeId, u64, TimerKind)> {
        let now = self.now;
        self.find_timer(|due, owner, req_id, kind| (due <= now).then_some((owner, req_id, kind)))
    }

    fn fire_timer(&mut self, owner: NodeId, req_id: u64, kind: TimerKind) {
        let Some(mut agg) = self
            .node_mut(owner)
            .and_then(|node| node.aggs.remove(&req_id))
        else {
            return;
        };
        let idx = match kind {
            TimerKind::Finalize => return self.finalize(owner, req_id, agg),
            TimerKind::Retry(idx) => idx,
        };
        match agg.children[idx].state {
            ChildState::Inflight { attempt, .. } if attempt < self.cfg.max_retries => {
                let attempt = attempt + 1;
                agg.children[idx].state = ChildState::Inflight {
                    attempt,
                    retry_at: Some(self.now + self.cfg.retry_interval(attempt)),
                };
                self.stats.retries += 1;
                self.send_request(owner, req_id, &agg, idx);
            }
            _ => {
                // Peer presumed dead: its whole subtree is missed.
                let mut hosts = Vec::new();
                subtree_hosts(&agg.children[idx].subtree, &mut hosts);
                agg.cov.missed.extend(hosts);
                agg.children[idx].state = ChildState::Failed;
                agg.inflight -= 1;
                self.pump(owner, req_id, &mut agg);
                if agg.terminal() {
                    return self.finalize(owner, req_id, agg);
                }
            }
        }
        self.put_agg(owner, req_id, agg);
    }

    /// The state machine at `id`: the controller or an agent.
    fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        if id == CONTROLLER {
            Some(&mut self.controller)
        } else {
            self.agents.get_mut(id as usize)
        }
    }

    /// Puts an aggregation taken out for a `pump` or `finalize` back.
    fn put_agg(&mut self, owner: NodeId, req_id: u64, agg: Agg) {
        if let Some(node) = self.node_mut(owner) {
            node.aggs.insert(req_id, agg);
        }
    }

    // --- completion ------------------------------------------------------

    /// Writes off outstanding subtrees as timed-out, normalizes coverage,
    /// and routes the result up (agents) or out (controller).
    fn finalize(&mut self, owner: NodeId, req_id: u64, mut agg: Agg) {
        for c in &agg.children {
            if matches!(c.state, ChildState::Queued | ChildState::Inflight { .. }) {
                let mut hosts = Vec::new();
                subtree_hosts(&c.subtree, &mut hosts);
                agg.cov.timed_out.extend(hosts);
            }
        }
        agg.queued.clear();
        agg.inflight = 0;
        if owner == CONTROLLER {
            self.complete_controller(req_id, agg);
        } else {
            self.reply_up(owner, req_id, agg);
        }
    }

    fn reply_up(&mut self, owner: NodeId, req_id: u64, mut agg: Agg) {
        agg.cov.normalize();
        let Some(parent) = agg.parent else {
            return;
        };
        let msg = ReplyMsg {
            req_id,
            response: agg.acc,
            coverage: agg.cov,
        };
        let wire = Frame::build(FRAME_RPC_REPLY, &msg);
        let me = owner as usize;
        let cache = &mut self.agents[me].reply_cache;
        if cache.len() >= self.cfg.reply_cache_cap {
            cache.pop_first();
        }
        cache.insert(req_id, wire.clone());
        let departs = agg.busy_until.max(self.now);
        self.channel.send(owner, parent, wire, departs);
    }

    fn complete_controller(&mut self, req_id: u64, mut agg: Agg) {
        agg.cov.normalize();
        let Some(adm) = self.admitted.remove(&req_id) else {
            return; // only admitted queries aggregate at the controller
        };
        let elapsed = agg.busy_until.max(self.now) - adm.admitted_at;
        self.outcomes.insert(
            req_id,
            QueryOutcome {
                response: agg.acc,
                coverage: agg.cov,
                hosts: adm.hosts,
                elapsed,
                queued_wait: adm.admitted_at - adm.submitted_at,
                deadline_met: elapsed <= self.cfg.deadline,
            },
        );
        self.try_admit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_core::execute_on_tib;
    use pathdump_tib::TibRecord;
    use pathdump_topology::{FlowId, Ip, Path, SwitchId, TimeRange};

    fn tib_with(host: usize, n: usize) -> Tib {
        let mut t = Tib::new();
        for i in 0..n {
            t.insert(TibRecord {
                flow: FlowId::tcp(
                    Ip::new(10, host as u8, 0, 2),
                    1000 + i as u16,
                    Ip::new(10, 99, 0, 2),
                    80,
                ),
                path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
                stime: Nanos(i as u64),
                etime: Nanos(i as u64 + 10),
                bytes: (host * 1000 + i * 17) as u64,
                pkts: 1,
            });
        }
        t
    }

    fn tibs(n_hosts: usize, records: usize) -> Vec<Tib> {
        (0..n_hosts).map(|h| tib_with(h, records)).collect()
    }

    /// The oracle: every queried host's local answer folded flat.
    fn flat_fold(tibs: &[Tib], q: &Query, hosts: &[usize]) -> Response {
        let mut acc = Response::empty_for(q);
        for &h in hosts {
            acc.merge(execute_on_tib(&tibs[h], q));
        }
        acc
    }

    #[test]
    fn lossless_tree_matches_multilevel_oracle() {
        let data = tibs(30, 40);
        let hosts: Vec<usize> = (0..30).collect();
        let q = Query::TopK {
            k: 25,
            range: TimeRange::ANY,
        };
        let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), data.clone());
        let id = plane.submit(&q, &hosts, &[7, 4, 4]);
        let out = plane.run(id).expect("completes");
        assert_eq!(out.response, flat_fold(&data, &q, &hosts));
        assert!(out.coverage.is_complete());
        assert_eq!(out.coverage.answered.len(), 30);
        assert!(out.coverage.partitions(&(0..30u32).collect::<Vec<_>>()));
        assert!(out.deadline_met);
        assert_eq!(plane.stats().retries, 0);
        assert_eq!(plane.stats().decode_failures, 0);
    }

    #[test]
    fn pipelined_queries_all_complete() {
        let data = tibs(12, 20);
        let hosts: Vec<usize> = (0..12).collect();
        let cfg = RpcConfig {
            max_queries_inflight: 2, // force queueing
            ..RpcConfig::default()
        };
        let mut plane = TreePlane::new(Loopback::default(), cfg, data.clone());
        let queries = [
            Query::TopK {
                k: 5,
                range: TimeRange::ANY,
            },
            Query::TrafficMatrix {
                range: TimeRange::ANY,
            },
            Query::GetFlows {
                link: pathdump_topology::LinkPattern::ANY,
                range: TimeRange::ANY,
            },
            Query::HeavyHitters {
                min_bytes: 5_000,
                range: TimeRange::ANY,
            },
            Query::FlowSizeDist {
                link: pathdump_topology::LinkPattern::ANY,
                range: TimeRange::ANY,
                bin_bytes: 1000,
            },
        ];
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|q| plane.submit(q, &hosts, &[3, 2, 2]))
            .collect();
        plane.run_until_idle();
        for (q, id) in queries.iter().zip(ids) {
            let out = plane.take_outcome(id).expect("completed");
            assert_eq!(out.response, flat_fold(&data, q, &hosts), "query {q:?}");
            assert!(out.coverage.is_complete());
            assert!(out.deadline_met);
        }
    }

    #[test]
    fn empty_host_set_completes_immediately() {
        let data = tibs(4, 5);
        let q = Query::TopK {
            k: 3,
            range: TimeRange::ANY,
        };
        let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), data.clone());
        let id = plane.submit(&q, &[], &[7, 4, 4]);
        let out = plane.run(id).expect("completes");
        assert_eq!(out.response, flat_fold(&data, &q, &[]));
        assert_eq!(
            out.response,
            Response::TopK {
                k: 3,
                entries: vec![]
            }
        );
        assert_eq!(out.coverage.total(), 0);
        assert!(out.deadline_met);
    }

    #[test]
    fn single_host_tree() {
        let data = tibs(1, 10);
        let q = Query::TrafficMatrix {
            range: TimeRange::ANY,
        };
        let mut plane = TreePlane::new(Loopback::default(), RpcConfig::default(), data.clone());
        let id = plane.submit(&q, &[0], &[7, 4, 4]);
        let out = plane.run(id).expect("completes");
        assert_eq!(out.response, flat_fold(&data, &q, &[0]));
        assert_eq!(out.coverage.answered, vec![0]);
    }

    #[test]
    fn backpressure_bounds_child_inflight() {
        // A flat 1-level tree over 20 hosts with max_children_inflight=2:
        // the controller may never have more than 2 outstanding calls, yet
        // everything completes and matches the oracle.
        let data = tibs(20, 10);
        let hosts: Vec<usize> = (0..20).collect();
        let q = Query::TopK {
            k: 10,
            range: TimeRange::ANY,
        };
        let cfg = RpcConfig {
            max_children_inflight: 2,
            ..RpcConfig::default()
        };
        let mut plane = TreePlane::new(Loopback::default(), cfg, data.clone());
        let id = plane.submit(&q, &hosts, &[20]);
        let out = plane.run(id).expect("completes");
        assert_eq!(out.response, flat_fold(&data, &q, &hosts));
        assert!(out.coverage.is_complete());
    }
}
