//! PathDump core: the paper's primary contribution assembled.
//!
//! - [`agent`]: the per-host edge agent — trajectory memory → construction
//!   (cache + CherryPick reconstruction) → TIB, with real-time invariant
//!   checks and the Host API of Table 1;
//! - [`query`]: serializable queries with merge semantics;
//! - [`cluster`]: the aggregation tree's shape and wire form, and the
//!   management-network model the `rpc` plane runs queries over (§3.2);
//! - [`world`]: the full simulation world (agents + TCP + active monitor +
//!   controller trap handler) used by every §4 experiment;
//! - [`standing`]: the standing-query/alarm engine — registered
//!   predicates evaluated incrementally per TIB record, raising on flips;
//! - [`alarm`]: `Alarm(flowID, Reason, Paths)`.

pub mod agent;
pub mod alarm;
pub mod cluster;
pub mod query;
pub mod standing;
pub mod world;

pub use agent::{execute_on_tib, AgentConfig, Fabric, HostAgent, HostService, Invariant};
// The storage engine types downstream crates need to talk to `HostAgent::tib`.
pub use alarm::{Alarm, Reason};
pub use cluster::{build_tree, MgmtNet, TreeNode, MAX_TREE_DEPTH};
pub use pathdump_tib::{TibRead, TieredTib};
pub use query::{Query, Response};
pub use standing::{StandingEvent, StandingPredicate, StandingQuery, StandingQueryEngine, WatchId};
pub use world::{HostView, LoopDetection, PathDumpWorld, WorldConfig};
