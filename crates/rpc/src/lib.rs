//! The distributed query plane: agent servers answering queries over a
//! pluggable [`Channel`], organized into the paper's fan-out/fan-in
//! aggregation tree (§3.2) — a message-passing request/response protocol
//! with every production failure mode modeled and tested. It is the one
//! implementation of that tree: the direct mechanism of §5.2 is the same
//! plane with every host a root (`fanouts = [n]`).
//!
//! # Architecture
//!
//! The plane is **poll-driven over virtual time** (no executor, no
//! threads): [`TreePlane::step`] advances a virtual clock to the next
//! channel delivery or protocol timer and runs every state machine due at
//! that instant. Under the default [`Free`] compute, determinism is total
//! — same channel, same seed, same submissions ⇒ same outcome, byte for
//! byte — which is what lets the chaos suite make *exact* assertions about
//! degraded queries.
//!
//! A query fans out down the aggregation tree (built by
//! `pathdump_core::cluster::build_tree`, shipped inside each request as a
//! source-routed subtree) and partial
//! [`Response`](pathdump_core::Response) merges stream back up: every
//! interior agent executes the query locally, merges child replies
//! as they arrive, and sends one merged reply to its parent. All frames
//! ride the `pathdump_wire` codec (length-delimited, CRC-32 trailer), so
//! corruption is detected at the frame boundary and surfaces as a retry,
//! never as a wrong answer.
//!
//! A [`Compute`] charges each node's own work — its local execution and
//! every merge — to the clock before its reply leaves ([`compute`]).
//!
//! # Channel contract
//!
//! A [`Channel`] is an unreliable, unordered datagram fabric:
//!
//! - [`Channel::send`] **may** deliver the frame to its destination, once
//!   or more than once, after an arbitrary finite delay; it may corrupt
//!   payload bytes; it may silently drop the frame. It never invents
//!   frames and never delivers to a node other than `to`.
//! - [`Channel::next_delivery_at`] must return the earliest pending
//!   delivery time (the plane's clock source). A channel that holds a
//!   frame forever without exposing a delivery time is equivalent to a
//!   drop — the protocol's timers own liveness, not the channel.
//! - Delivery order between distinct frames is unspecified; the plane
//!   never assumes FIFO.
//!
//! Two backends ship: [`Loopback`] (lossless, fixed latency model — the
//! differential reference whose answers are pinned equal to the flat fold
//! of every host's local answer) and [`FaultyChannel`] (seeded
//! drop/duplicate/reorder/delay/corrupt/dead-peer injection — every
//! degradation path is a first-class test target).
//!
//! # Timeout and retry semantics
//!
//! Each parent→child call has one liveness rule — request, then ack or
//! reply, else retransmit, until the deadline — configured in
//! [`RpcConfig`]:
//!
//! - **Accept-ack**: a non-leaf child acks a request the moment it starts
//!   aggregating (a leaf's immediate reply doubles as its ack). The ack
//!   parks the parent's retransmit timer for that child — a parent's RTO
//!   cannot tell a dead child from a live one whose subtree legitimately
//!   needs many RTOs (e.g. it is burning retries on a dead grandchild of
//!   its own), so unacked silence means "presumed dead" while acked
//!   silence means "still working; wait for the deadline".
//! - **Retransmit**: an unacked, unanswered call retries at `rto`, backing
//!   off by `backoff_mult` per attempt, at most `max_retries` resends.
//!   Exhaustion marks the child's whole subtree **missed** (peer presumed
//!   dead). A live agent receiving a duplicate request re-acks, so a lost
//!   ack costs a retransmit, never a false write-off of a live peer.
//!   There is no hedge: a second request pays when another replica can
//!   answer, but every host's TIB is unique and the subtree is
//!   source-routed, so a hedge could only re-ask the same host — an
//!   earlier retransmit outside `max_retries` and backoff, which on a
//!   lossless channel doubled every reply slower than the hedge timer.
//! - **Deadline**: every query carries an absolute deadline; each level
//!   grants its children `hop_slack` less than its own budget, so leaves
//!   time out first and partial merges have time to climb back up. When a
//!   node's deadline fires, outstanding subtrees are marked **timed-out**
//!   and the partial merge is sent up immediately. The controller
//!   finalizes at the full deadline unconditionally — a degraded query
//!   *returns*, it never hangs.
//! - **Backpressure**: a node keeps at most `max_children_inflight` child
//!   calls outstanding (the rest queue), and the controller admits at most
//!   `max_queries_inflight` concurrent queries (later submissions queue
//!   and are admitted as slots free — request pipelining with a bound).
//!
//! Duplicate requests are answered from a bounded per-agent reply cache
//! (at-most-once *execution*, at-least-once *delivery*); duplicate replies
//! are ignored at the parent, so fault-injected duplication can never
//! double-merge a response (pinned by the chaos suite on `Count` queries,
//! where a double merge would double the sum).
//!
//! # Coverage accounting guarantees
//!
//! Every [`QueryOutcome`] carries a [`Coverage`]: three sorted, disjoint
//! host lists — **answered** (the host's local answer is in the merged
//! response), **missed** (retries exhausted; peer unreachable or dead) and
//! **timed-out** (still outstanding when a deadline fired). The plane
//! guarantees:
//!
//! - the three classes partition the queried host set exactly (every host
//!   appears in exactly one class; an index with no host behind it is
//!   missed);
//! - an answered host's *complete* local answer was merged — there are no
//!   partially-merged hosts, so the degraded response equals the fold of
//!   `execute_on_tib` (with `Response::merge`) over exactly
//!   `coverage.answered`;
//! - a host below a missed/timed-out interior node is itself counted
//!   missed/timed-out (it was unreachable through the tree), and interior
//!   agents fold their children's coverage into their reply, so the
//!   controller's view is the exact per-host truth;
//! - `elapsed ≤ deadline` whenever `deadline_met` is reported, and
//!   termination within the deadline holds under arbitrary channel
//!   behavior (liveness comes from timers, not the channel).
//!
//! Late replies (arriving after their subtree was written off) are
//! dropped, not re-classified: coverage is the state at finalize time.

pub mod channel;
pub mod compute;
pub mod coverage;
pub mod fault;
pub mod msg;
pub mod plane;

pub use channel::{Channel, Delivery, Loopback, NodeId, CONTROLLER};
pub use compute::{Compute, Free, Measured};
pub use coverage::Coverage;
pub use fault::{FaultLog, FaultPlan, FaultyChannel};
pub use msg::{AckMsg, ReplyMsg, RequestMsg, FRAME_RPC_ACK, FRAME_RPC_REPLY, FRAME_RPC_REQUEST};
pub use plane::{PlaneStats, QueryId, QueryOutcome, RpcConfig, TreePlane};
