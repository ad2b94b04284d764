//! Static dataplane verification for the PathDump reproduction.
//!
//! PathDump's runtime conformance story (§2.3, §4.1 of the paper) checks
//! *observed* trajectories against operator policy. This crate closes the
//! other half of the loop: it analyzes the *installed* forwarding state —
//! [`Topology`](pathdump_topology::Topology) plus
//! [`RouteTables`](pathdump_topology::RouteTables) — without simulating a
//! single packet, and proves or refutes three properties per destination
//! ToR:
//!
//! - **loop-freedom**: the forwarding graph restricted to one destination
//!   contains no directed cycle reachable from any source ToR;
//! - **blackhole-freedom**: every switch reachable on the way to the
//!   destination has at least one candidate egress port, and every candidate
//!   port is wired to something
//!   ([`port_connected`](pathdump_topology::routing::port_connected));
//! - **reachability / path-set enumeration**: the complete set of intended
//!   paths per (src ToR, dst ToR) pair, with per-link membership counts for
//!   007-style link scoring.
//!
//! # Soundness of the memoized DFS
//!
//! [`verify()`] explores, for each destination ToR `d`, the candidate
//! multigraph `G_d` whose edges at switch `u` are exactly the ECMP candidate
//! ports `routes.candidates_to_tor(u, d)`. Forwarding in this model is
//! **memoryless**: the candidate set at `u` depends only on `(u, d)`, never
//! on how a packet arrived at `u`. Consequently the set of suffix walks
//! leaving `u` toward `d` — and therefore whether *any* of them loops,
//! dead-ends, or misdelivers — is a function of `(u, d)` alone. Memoizing a
//! per-switch status (`Ok` = every maximal suffix walk reaches `d`; `Bad` =
//! some suffix walk hits a violation) is thus *exact* over the full ECMP
//! product: a suffix explored once under one prefix has the same verdict
//! under every other prefix, so pruning revisits loses no violations and
//! invents none. Cycles are caught by the classic three-color argument: an
//! edge into a switch currently on the DFS stack closes a directed cycle in
//! `G_d`, and conversely any cycle reachable from a source ToR is entered by
//! the DFS and its last-discovered node sees a stack ancestor.
//!
//! Reachability needs no separate pass: in a finite graph every maximal walk
//! either revisits a switch (a loop, flagged), stops at a switch with no
//! usable candidate (a blackhole or misdelivery, flagged), or terminates at
//! `d`. A clean verdict therefore implies every source ToR reaches every
//! destination ToR along *every* ECMP resolution — which also makes `G_d` a
//! DAG, the property [`IntentModel`] relies on to enumerate and count paths
//! with dynamic programming.
//!
//! The cost is `O(switches × ports)` per destination instead of the
//! exponential ECMP product, so k=16 fat-trees and large VL2 instances
//! verify in well under a second (the `verifier_gate` bin holds k=16 to a
//! wall-time budget and prints each topology's verify time).
//!
//! # Closing the runtime loop
//!
//! A clean verdict is distilled into an [`IntentModel`]: the per-destination
//! next-hop DAG. `pathdump_apps::ConformancePolicy::from_intent` installs it
//! on host agents, which then raise `PC_FAIL` alarms for any observed
//! trajectory outside the static path set — catching misrouting that drops
//! nothing, with the nearest intended path attached as the second alarm
//! path. The differential tests in `tests/verifier_differential.rs` inject
//! route-table misconfigurations and assert the static and runtime verdicts
//! agree.

pub mod intent;
pub mod verify;

pub use intent::IntentModel;
pub use verify::{diff_tables, verify, verify_with_intent, Verdict, Violation, ViolationKind};
