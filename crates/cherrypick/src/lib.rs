//! CherryPick: per-packet trajectory tracing with near-optimal header space
//! (§3.1 of the PathDump paper; originally SOSR'15 \[36\]).
//!
//! The pieces, bottom-up:
//! - [`ids`]: the 12-bit link-identifier spaces, shared across pods;
//! - [`policy`]: the switch-side sampling rules as a
//!   [`pathdump_simnet::TagPolicy`] — static rules only, no dynamic state;
//! - [`reconstruct`]: sampled link IDs + static topology → end-to-end path,
//!   including infeasibility detection (§2.4) and the controller-side
//!   search used for punted (≥3-tag) packets;
//! - [`cache`]: the per-host trajectory cache of Figure 2;
//! - [`rules`]: static rule-count accounting and the edge-coloring view of
//!   core-link ID assignment.

pub mod cache;
pub mod ids;
pub mod policy;
pub mod reconstruct;
pub mod rules;

pub use cache::{CacheKey, TrajectoryCache};
pub use ids::{FatTreeIds, FtTag, Vl2Ids, Vl2Tag};
pub use policy::{tags_for_walk, FatTreeCherryPick, Vl2CherryPick};
pub use reconstruct::{
    path_is_feasible, DecodeMemo, FatTreeReconstructor, ReconstructError, Vl2Reconstructor,
};
pub use rules::{fattree_rule_counts, pod_core_coloring, vl2_rule_counts, RuleCount};
