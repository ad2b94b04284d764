//! The Trajectory Information Base (TIB): PathDump's per-host storage and
//! query engine (§3.2, Figure 2).
//!
//! Pipeline: arriving packets update the [`TrajectoryMemory`] (per-path
//! flow records keyed by flow ID + raw link IDs); FIN/RST or a 5-second
//! idle timeout evicts records; trajectory construction (in
//! `pathdump-cherrypick`) turns link IDs into full paths; the finished
//! `<flowID, path, stime, etime, #bytes, #pkts>` records land in the
//! indexed store, which answers the Host API queries of Table 1.
//!
//! Storage is tiered ([`TieredTib`], `segment.rs`): a mutable head
//! [`Tib`] (fixed-width rows indexed by path) seals into immutable
//! time-partitioned segments, cold segments evict to disk with lazy
//! reload, a per-host WAL (`wal.rs`) bounds crash loss to the unflushed
//! tail, and readers query published sealed prefixes concurrently with
//! ingest ([`TibReader`]). All three
//! engines ([`Tib`], [`TieredTib`], [`SealedView`]) and the agent's
//! [`LiveView`] of a store plus its trajectory memory answer the same eight
//! queries through the [`TibRead`] trait and through nothing else — the
//! three tiered views through one shared body — and
//! `tests/prop_equivalence.rs` pins all four to the same linear scan;
//! [`TibDiff::between`] compares any two of them.
//!
//! Persistence is the snapshot envelope of `snapshot.rs`: one writer
//! ([`save_tiered`], TIB3 — a versioned segment directory for delta
//! checkpoints) and one loader ([`load_tiered`]), which also reads the
//! flat TIB2 files older stores wrote.
//!
//! The paper stores TIB records in MongoDB; this crate substitutes an
//! in-memory indexed store with binary snapshots.

pub mod diff;
pub mod memory;
pub mod record;
pub mod segment;
pub mod snapshot;
pub mod tib;
pub mod wal;

pub use diff::{diff_snapshots, PathDelta, TibDiff};
pub use memory::{canonical_order, MemKey, TrajectoryMemory};
pub use record::{PendingRecord, TibRecord};
pub use segment::{
    LiveView, RecoveryReport, SealedView, StoreError, StoreResult, TibReader, TieredTib,
};
pub use snapshot::{load_tiered, save_tiered, save_tiered_into, SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V3};
pub use tib::{Tib, TibRead, DEFAULT_BUCKET_WIDTH, TOP_K_DIGIT_BITS};
pub use wal::{FileWal, VecWal, WalReplay, WalStore, WAL_FRAME_BATCH, WAL_FRAME_RECORD};
