//! Datacenter topology substrate for the PathDump reproduction.
//!
//! This crate provides the shared vocabulary of the whole workspace —
//! switch/host/port/link/flow identifiers, simulated-time types, switch-level
//! paths — together with builders for the two structured topologies the paper
//! evaluates on (**fat-tree** and **VL2**), up–down routing with ECMP and
//! per-packet spraying, and the bipartite edge-coloring used by CherryPick to
//! assign core-link identifiers (reference [13] of the paper).
//!
//! Everything here is "ground truth": the static view of the network that
//! each PathDump edge device stores (§2.2 of the paper) and that the
//! trajectory-construction module uses to turn sampled link IDs back into
//! end-to-end paths.

pub mod coloring;
pub mod fattree;
pub mod fnv;
pub mod graph;
pub mod ids;
pub mod path;
pub mod routing;
pub mod time;
pub mod vl2;

pub use coloring::color_bipartite_multigraph;
pub use fattree::{FatTree, FatTreeParams};
pub use fnv::{FlowKey, FnvBuild, FnvHasher};
pub use graph::{HostMeta, Peer, SwitchMeta, Tier, Topology};
pub use ids::{FlowId, HostId, Ip, LinkDir, LinkPattern, PortNo, Protocol, SwitchId};
pub use path::{Flow, Path};
pub use routing::{ecmp_hash, is_contiguous_walk, is_walk, RouteTables, UpDownRouting};
pub use time::{Nanos, TimeRange, MICROS, MILLIS, SECONDS};
pub use vl2::{Vl2, Vl2Params};
