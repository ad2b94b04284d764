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
//! Determinism: one event queue ordered by `(time, causal key)` plus
//! partitioned seeded RNG streams (one per switch, one for the hosts) make
//! every run a pure function of configuration, seed and harness calls.
//! `tests/golden.rs` pins that function for 600 seeded scenarios, and
//! `tests/prop_stepping.rs` that slicing a run into `run_until` steps
//! changes nothing a harness can observe (see the `sim` and `event`
//! module docs).

pub mod config;
pub mod event;
pub mod fault;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod traits;

pub use config::{LinkConfig, SimConfig};
pub use fault::{FaultState, LoadBalance, Misconfig, Quirk, SwitchQuirks};
pub use packet::{Packet, TagHeaders, TcpFlags, HEADER_BYTES, VLAN_TAG_BYTES};
pub use sim::Simulator;
pub use stats::{DropReason, DropRecord, LinkCounters, SimStats, SwitchCounters};
pub use traits::{CtrlApi, HostApi, NoTagging, Punt, SinkWorld, TagPolicy, World};
