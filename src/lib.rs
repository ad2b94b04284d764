//! PathDump: edge-based datacenter network debugging via packet-trajectory
//! tracing — a full Rust reproduction of the OSDI'16 paper.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`topology`]: fat-tree/VL2 builders, routing, IDs — the static view
//!   each edge device stores;
//! - [`simnet`]: the discrete-event packet-level fabric (the testbed
//!   substitute) with fault injection;
//! - [`cherrypick`]: link sampling, 12-bit ID spaces, path reconstruction;
//! - [`transport`]: simplified TCP with retransmission counters and the
//!   web workload generator;
//! - [`tib`]: trajectory memory + the indexed, queryable store;
//! - [`core`]: host agents, alarms, the controller, queries and their
//!   merge rules, the aggregation tree's shape and the management-network
//!   model;
//! - [`rpc`]: the distributed query plane — agent servers answering
//!   queries over a pluggable channel through a fan-out/fan-in
//!   aggregation tree (direct queries are the one-level tree), with
//!   timeouts, retries and exact per-host coverage for degraded queries;
//!   its `execute` is the Controller API every application queries with;
//! - [`apps`]: the §4 debugging applications;
//! - [`verifier`]: static dataplane verification (loops, blackholes,
//!   reachability) and intent models for runtime conformance;
//! - [`dpswitch`]: the userspace datapath for the Figure 13 experiment.
//!
//! # Examples
//!
//! ```
//! use pathdump::prelude::*;
//!
//! // Build a 4-ary fat-tree with CherryPick tagging and PathDump agents.
//! let ft = FatTree::build(FatTreeParams { k: 4 });
//! let world = PathDumpWorld::new(
//!     Fabric::FatTree(FatTreeReconstructor::new(ft.clone())),
//!     TcpConfig::default(),
//!     WorldConfig::default(),
//! );
//! let mut sim = Simulator::new(
//!     &ft,
//!     SimConfig::for_tests(),
//!     Box::new(FatTreeCherryPick::new(ft.clone())),
//!     world,
//! );
//! PathDumpWorld::start(&mut sim);
//! sim.run_until(Nanos::from_secs(1));
//! assert_eq!(sim.world.agents.len(), 16);
//! ```

pub use pathdump_apps as apps;
pub use pathdump_cherrypick as cherrypick;
pub use pathdump_core as core;
pub use pathdump_dpswitch as dpswitch;
pub use pathdump_rpc as rpc;
pub use pathdump_simnet as simnet;
pub use pathdump_tib as tib;
pub use pathdump_topology as topology;
pub use pathdump_transport as transport;
pub use pathdump_verifier as verifier;
pub use pathdump_wire as wire;

/// The most common imports, bundled.
pub mod prelude {
    pub use pathdump_apps::Testbed;
    pub use pathdump_cherrypick::{
        FatTreeCherryPick, FatTreeReconstructor, Vl2CherryPick, Vl2Reconstructor,
    };
    pub use pathdump_core::{
        Alarm, Fabric, Invariant, MgmtNet, PathDumpWorld, Query, Reason, Response, StandingEvent,
        StandingPredicate, StandingQuery, StandingQueryEngine, WatchId, WorldConfig,
    };
    pub use pathdump_rpc::{
        Channel, Coverage, FaultPlan, FaultyChannel, Loopback, QueryOutcome, RpcConfig, TreePlane,
    };
    pub use pathdump_simnet::{
        FaultState, LoadBalance, Misconfig, Packet, Quirk, SimConfig, Simulator, TagPolicy, World,
    };
    pub use pathdump_tib::{
        diff_snapshots, PathDelta, Tib, TibDiff, TibRead, TibReader, TibRecord, TieredTib,
    };
    pub use pathdump_topology::{
        FatTree, FatTreeParams, FlowId, HostId, Ip, LinkDir, LinkPattern, Nanos, Path, SwitchId,
        TimeRange, UpDownRouting, Vl2, Vl2Params,
    };
    pub use pathdump_transport::{FlowSpec, TcpConfig, TcpEngine, WebWorkload};
    pub use pathdump_verifier::{verify, IntentModel, Verdict, Violation, ViolationKind};
}
