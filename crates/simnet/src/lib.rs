//! Discrete-event, packet-level datacenter network simulator.
//!
//! This crate is the substrate substituting for the paper's physical
//! testbed (28 servers, commodity OpenFlow switches): switches forward with
//! static match-action semantics over the up–down routes of a structured
//! topology, apply a pluggable trajectory-tagging policy (CherryPick), obey
//! the two-VLAN-tag ASIC parsing limit by punting ≥3-tag packets to the
//! controller, and expose the fault models every PathDump experiment
//! injects: link failures, silent random drops (invisible to counters),
//! blackholes, queue tail drops, and forwarding misconfigurations.
//!
//! Determinism: per-shard event queues ordered by `(time, causal key)`
//! plus partitioned seeded RNG streams make every run exactly reproducible
//! — on either engine. Both engines run on the calling thread: one global
//! event order ([`config::EngineKind::Sequential`]) or windowed rounds over
//! one shard per fat-tree pod ([`config::EngineKind::Sharded`]); they
//! produce bit-identical results (see `sim` module docs and
//! `tests/prop_shard_equivalence.rs`).
//!
//! # Engine selection matrix
//!
//! Measured on 2 vCPUs with the `simnet_scale` workload (medians of 9–11
//! alternating runs, M events/s, sequential / sharded): k=4 4.25 / 5.02,
//! k=6 3.61 / 4.91, k=8 3.27 / 4.63, k=16 2.38 / 3.26.
//!
//! | `engine` | Execution | Use when |
//! |---|---|---|
//! | `Sequential` (default) | Global `(time, key)` order via a tournament tree over the shard queue heads | The reference every differential suite compares against; equal or faster at the figure bins' paper link rates (`fig05` 3.48 vs 4.32 s, `fig06` 0.19 vs 0.28 s, `fig10` 0.28 vs 0.34 s) |
//! | `Sharded` | Windowed rounds: each shard drains its own queue up to its lookahead horizon, then the next shard runs | Dense-link scale runs: 1.2–1.4× sequential at k=4…16 above (`fig_k16_scale`, `bench_trajectory`'s `simnet` section) |
//!
//! `Sharded` falls back to the sequential driver when the topology has
//! fewer than two switch shards or any cross-shard channel has zero
//! lookahead ([`sim::Simulator::effective_engine`]).

pub mod config;
mod driver;
pub mod event;
pub mod fault;
pub mod packet;
mod shard;
pub mod sim;
pub mod stats;
pub mod traits;

pub use config::{EngineKind, LinkConfig, SimConfig};
pub use fault::{FaultState, LoadBalance, Misconfig, Quirk, SwitchQuirks};
pub use packet::{Packet, TagHeaders, TcpFlags, HEADER_BYTES, VLAN_TAG_BYTES};
pub use sim::Simulator;
pub use stats::{DropReason, DropRecord, LinkCounters, SimStats, SwitchCounters};
pub use traits::{CtrlApi, HostApi, NoTagging, Punt, SinkWorld, TagPolicy, World};
