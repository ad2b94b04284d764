//! Trajectory memory: the in-kernel-datapath aggregation stage (Figure 2).
//!
//! "Using the flow ID and link IDs together as a key, we create or update a
//! per-path flow record in trajectory memory. ... Similar to NetFlow, if
//! FIN or RST packet is seen or a per-path flow record is not updated for a
//! certain time period (e.g., 5 seconds), the flow record is evicted from
//! the trajectory memory and forwarded to the trajectory construction
//! sub-module." (§3.2)
//!
//! # Internal representation
//!
//! The map is keyed by **flow**, and an entry holds that flow's per-path
//! records: a single path sits inline in the entry; a flow that sprays
//! over several paths moves them to a `Vec` allocated when its second
//! path shows up. One map, no side index — so a FIN is one `remove` plus
//! a sort of that flow's few records instead of a walk over every live
//! record, and a single-path flow's entry is no larger than a flat
//! per-record entry was.
//!
//! The public key type, [`MemKey`], carries its tag stack in a `Vec<u16>`
//! — convenient at the edges, but poison on the per-packet path: comparing
//! a stored key would chase a heap pointer per probe (a cache miss that
//! profiling shows dominates the whole PathDump datapath overhead). A
//! stored path therefore keeps up to `INLINE_TAGS` tags next to its
//! counters; only deeper stacks — beyond anything the bounded parser
//! emits — live in a boxed slice. The per-packet hit path hashes the flow
//! as two packed `u64` words (one FNV mix per word instead of one per
//! field), then compares `(dscp_sample, tags)` against the entry's paths
//! in place. A resident probe scratch makes `update`/`update_borrowed`
//! allocation-free on the hit path; [`TrajectoryMemory::update_wire`]
//! goes one step further and builds the probe straight from the parse
//! products, with the 0/1-tag shapes specialized.
//!
//! `evict_idle` and `flush` still visit every flow; they run at tick
//! rate, not per packet.
//!
//! # Eviction order
//!
//! `evict_flow`, `evict_idle` and `flush` emit pending records in the
//! canonical `(stime, flow, dscp_sample, tags)` order ([`canonical_order`])
//! rather than hash-map iteration order. That makes eviction output a pure
//! function of the record *set*: what reaches the TIB does not depend on
//! the map's hasher, capacity or insertion history.

use crate::record::PendingRecord;
use pathdump_topology::{FlowId, FlowKey, FnvBuild, Nanos, SECONDS};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Key of a per-path flow record: flow ID plus raw trajectory samples.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemKey {
    /// The 5-tuple.
    pub flow: FlowId,
    /// VL2 DSCP sample.
    pub dscp_sample: Option<u8>,
    /// VLAN tags in push order.
    pub tags: Vec<u16>,
}

/// Tags a stored path keeps inline before moving to the heap. Double the
/// parser's `MAX_TAGS`, so wire-parsed keys never allocate.
const INLINE_TAGS: usize = 8;

/// A tag stack in push order. `Inline` slots at index `>= len` are zero,
/// so the derived whole-array compare agrees with logical equality and the
/// per-packet probe is straight-line compares (the slice compare of
/// `Deep`, a `bcmp` call, is only reached by stacks that deep).
#[derive(Clone, PartialEq, Eq, Debug)]
enum Tags {
    Inline { len: u8, tags: [u16; INLINE_TAGS] },
    Deep(Box<[u16]>),
}

impl Tags {
    const EMPTY: Tags = Tags::Inline {
        len: 0,
        tags: [0; INLINE_TAGS],
    };

    /// Collects an iterator already in push order.
    fn collect(mut it: impl ExactSizeIterator<Item = u16>) -> Self {
        let len = it.len();
        if len > INLINE_TAGS {
            return Tags::Deep(it.collect());
        }
        let mut tags = [0; INLINE_TAGS];
        for slot in tags.iter_mut().take(len) {
            *slot = it.next().unwrap_or(0);
        }
        let len = len as u8;
        Tags::Inline { len, tags }
    }

    fn as_slice(&self) -> &[u16] {
        match self {
            Tags::Inline { len, tags } => &tags[..*len as usize],
            Tags::Deep(tags) => tags,
        }
    }
}

/// What tells the paths of one flow apart: the `(dscp_sample, tags)` half
/// of a [`MemKey`].
#[derive(Clone, PartialEq, Eq, Debug)]
struct PathTags {
    dscp_sample: Option<u8>,
    tags: Tags,
}

impl PathTags {
    fn of(key: &MemKey) -> Self {
        PathTags {
            dscp_sample: key.dscp_sample,
            tags: Tags::collect(key.tags.iter().copied()),
        }
    }
}

/// One live per-path flow record.
#[derive(Clone, Debug)]
struct PathRecord {
    path: PathTags,
    stime: Nanos,
    etime: Nanos,
    bytes: u64,
    pkts: u64,
}

/// `approx_bytes` charge for a record's counters (two times, two counts).
const COUNTER_BYTES: usize = 2 * std::mem::size_of::<Nanos>() + 2 * std::mem::size_of::<u64>();

impl PathRecord {
    fn new(path: PathTags, bytes: u32, now: Nanos) -> Self {
        PathRecord {
            path,
            stime: now,
            etime: now,
            bytes: bytes as u64,
            pkts: 1,
        }
    }
}

/// The live records of one flow: never empty, in no particular order.
#[derive(Clone, Debug)]
enum FlowPaths {
    One(PathRecord),
    Many(Vec<PathRecord>),
}

impl FlowPaths {
    fn records(&self) -> &[PathRecord] {
        match self {
            FlowPaths::One(r) => std::slice::from_ref(r),
            FlowPaths::Many(v) => v,
        }
    }

    #[inline(always)]
    fn find_mut(&mut self, path: &PathTags) -> Option<&mut PathRecord> {
        match self {
            FlowPaths::One(r) => (r.path == *path).then_some(r),
            FlowPaths::Many(v) => v.iter_mut().find(|r| r.path == *path),
        }
    }

    /// Adds a path the flow was not seen on before.
    fn push(&mut self, r: PathRecord) {
        match self {
            FlowPaths::One(first) => *self = FlowPaths::Many(vec![first.clone(), r]),
            FlowPaths::Many(v) => v.push(r),
        }
    }
}

/// Builds the exported record for an evicted path of `flow`.
fn pending(flow: &FlowId, r: &PathRecord, closed: bool) -> PendingRecord {
    PendingRecord {
        flow: *flow,
        dscp_sample: r.path.dscp_sample,
        tags: r.path.tags.as_slice().to_vec(),
        stime: r.stime,
        etime: r.etime,
        bytes: r.bytes,
        pkts: r.pkts,
        closed,
    }
}

/// Canonical deterministic order of eviction/flush output:
/// `(stime, flow, dscp_sample, tags)`. Record keys are unique within one
/// memory, so this is a total order.
pub fn canonical_order(a: &PendingRecord, b: &PendingRecord) -> Ordering {
    (a.stime, a.flow, a.dscp_sample, &a.tags).cmp(&(b.stime, b.flow, b.dscp_sample, &b.tags))
}

/// The active per-path flow records of one edge device.
#[derive(Clone, Debug)]
pub struct TrajectoryMemory {
    flows: HashMap<FlowKey, FlowPaths, FnvBuild>,
    /// Live records across all flows (`flows.len()` counts flows).
    live: usize,
    /// Resident probe, so lookups never build a tag stack on the heap.
    probe: PathTags,
    idle_timeout: Nanos,
    updates: u64,
}

impl Default for TrajectoryMemory {
    fn default() -> Self {
        TrajectoryMemory::new(Nanos(5 * SECONDS))
    }
}

impl TrajectoryMemory {
    /// Creates a trajectory memory with the given idle eviction timeout
    /// (the paper uses 5 seconds).
    pub fn new(idle_timeout: Nanos) -> Self {
        TrajectoryMemory {
            flows: HashMap::default(),
            live: 0,
            probe: PathTags {
                dscp_sample: None,
                tags: Tags::EMPTY,
            },
            idle_timeout,
            updates: 0,
        }
    }

    /// Records one packet: creates or updates the per-path flow record.
    pub fn update(&mut self, key: MemKey, bytes: u32, now: Nanos) {
        self.update_borrowed(&key, bytes, now);
    }

    /// Allocation-free probe-and-update for the edge fast paths (datapath
    /// and host agent): looks up with a borrowed key and clones it only
    /// when the record is new (once per flow-path, not once per packet —
    /// the differential Figure 13 measures). Returns `true` when this
    /// packet *created* the record, i.e. first sight of the (flow, path)
    /// pair — the signal the agent's real-time invariant checks key on.
    #[inline]
    pub fn update_borrowed(&mut self, key: &MemKey, bytes: u32, now: Nanos) -> bool {
        self.probe = PathTags::of(key);
        self.touch_probe(&key.flow, bytes, now)
    }

    /// Hot-path update taking the parse products directly: the tag stack
    /// arrives **outermost-first** (exactly as `parse_into` leaves it) and
    /// is reversed into push order while filling the probe, so the caller
    /// needs no intermediate `MemKey`/`Vec` at all. The 0- and 1-tag
    /// shapes — the overwhelmingly common ones — skip the reversal loop
    /// entirely. Returns first-sight like [`Self::update_borrowed`].
    #[inline]
    pub fn update_wire(
        &mut self,
        flow: &FlowId,
        dscp_sample: Option<u8>,
        tags_outermost_first: &[u16],
        bytes: u32,
        now: Nanos,
    ) -> bool {
        self.probe.dscp_sample = dscp_sample;
        self.probe.tags = match tags_outermost_first {
            [] => Tags::EMPTY,
            [t] => {
                let mut tags = [0; INLINE_TAGS];
                tags[0] = *t;
                Tags::Inline { len: 1, tags }
            }
            _ => Tags::collect(tags_outermost_first.iter().rev().copied()),
        };
        self.touch_probe(flow, bytes, now)
    }

    /// Finds `flow`'s entry, then the probe's path within it, and
    /// creates/bumps the record.
    ///
    /// Force-inlined: when this lookup stays a standalone function the
    /// out-of-order window can't overlap the table loads of consecutive
    /// packets, and each update eats the full cache-miss latency (~10x
    /// on the bench box). Flattened into the caller's per-packet loop the
    /// misses pipeline.
    #[inline(always)]
    fn touch_probe(&mut self, flow: &FlowId, bytes: u32, now: Nanos) -> bool {
        self.updates += 1;
        match self.flows.get_mut(&FlowKey(*flow)) {
            Some(paths) => {
                if let Some(r) = paths.find_mut(&self.probe) {
                    r.etime = now;
                    r.bytes += bytes as u64;
                    r.pkts += 1;
                    return false;
                }
                paths.push(PathRecord::new(self.probe.clone(), bytes, now));
            }
            None => {
                self.flows.insert(
                    FlowKey(*flow),
                    FlowPaths::One(PathRecord::new(self.probe.clone(), bytes, now)),
                );
            }
        }
        self.live += 1;
        true
    }

    /// Evicts every record of `flow` (FIN or RST observed), in
    /// [`canonical_order`]: one map removal, whatever else is live.
    pub fn evict_flow(&mut self, flow: &FlowId, _now: Nanos) -> Vec<PendingRecord> {
        let Some(paths) = self.flows.remove(&FlowKey(*flow)) else {
            return Vec::new();
        };
        let mut out: Vec<PendingRecord> = paths
            .records()
            .iter()
            .map(|r| pending(flow, r, true))
            .collect();
        self.live -= out.len();
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Evicts records idle longer than the timeout, in [`canonical_order`].
    pub fn evict_idle(&mut self, now: Nanos) -> Vec<PendingRecord> {
        let cutoff = now.saturating_sub(self.idle_timeout);
        let mut out = Vec::new();
        self.flows.retain(|k, paths| {
            let mut keep = |r: &PathRecord| {
                if r.etime <= cutoff {
                    out.push(pending(&k.0, r, false));
                }
                r.etime > cutoff
            };
            match paths {
                FlowPaths::One(r) => keep(r),
                FlowPaths::Many(v) => {
                    v.retain(&mut keep);
                    !v.is_empty()
                }
            }
        });
        self.live -= out.len();
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Evicts everything (end of run / shutdown flush), in
    /// [`canonical_order`].
    pub fn flush(&mut self, _now: Nanos) -> Vec<PendingRecord> {
        let mut out = Vec::with_capacity(self.live);
        for (k, paths) in self.flows.drain() {
            out.extend(paths.records().iter().map(|r| pending(&k.0, r, false)));
        }
        self.live = 0;
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns true when no records are active.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total updates performed (the lookups/updates rate of §5.3).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Approximate resident bytes (§5.3 storage accounting), reported in
    /// terms of the logical `MemKey` so the figure stays comparable
    /// across internal representations.
    pub fn approx_bytes(&self) -> usize {
        self.flows
            .values()
            .flat_map(FlowPaths::records)
            .map(|r| {
                std::mem::size_of::<MemKey>() + r.path.tags.as_slice().len() * 2 + COUNTER_BYTES
            })
            .sum()
    }

    fn get(&self, key: &MemKey) -> Option<&PathRecord> {
        let path = PathTags::of(key);
        self.flows
            .get(&FlowKey(key.flow))?
            .records()
            .iter()
            .find(|r| r.path == path)
    }

    /// Peek at a live record's (bytes, pkts) for monitors.
    pub fn peek(&self, key: &MemKey) -> Option<(u64, u64)> {
        self.get(key).map(|r| (r.bytes, r.pkts))
    }

    /// Iterates over live record keys (the agent uses this to answer
    /// queries whose window includes not-yet-exported data, §3.2 "the
    /// server agent \[can\] look up the trajectory memory"). Keys are
    /// materialized from the inline storage form, so the iterator yields
    /// them by value.
    pub fn live_keys(&self) -> impl Iterator<Item = MemKey> + '_ {
        self.flows.iter().flat_map(|(k, paths)| {
            paths.records().iter().map(move |r| MemKey {
                flow: k.0,
                dscp_sample: r.path.dscp_sample,
                tags: r.path.tags.as_slice().to_vec(),
            })
        })
    }

    /// Snapshot of a live record as a pending record (not evicted).
    pub fn snapshot(&self, key: &MemKey) -> Option<PendingRecord> {
        self.get(key).map(|r| pending(&key.flow, r, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::Ip;

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    fn key(sport: u16, tags: &[u16]) -> MemKey {
        MemKey {
            flow: flow(sport),
            dscp_sample: None,
            tags: tags.to_vec(),
        }
    }

    #[test]
    fn per_path_aggregation() {
        let mut m = TrajectoryMemory::default();
        m.update(key(1, &[5]), 1000, Nanos(1));
        m.update(key(1, &[5]), 500, Nanos(2));
        m.update(key(1, &[6]), 200, Nanos(3));
        assert_eq!(m.len(), 2, "same flow, two paths = two records");
        assert_eq!(m.peek(&key(1, &[5])), Some((1500, 2)));
        assert_eq!(m.peek(&key(1, &[6])), Some((200, 1)));
    }

    #[test]
    fn fin_eviction_collects_all_paths_of_flow() {
        let mut m = TrajectoryMemory::default();
        m.update(key(1, &[5]), 1000, Nanos(1));
        m.update(key(1, &[6]), 500, Nanos(2));
        m.update(key(2, &[5]), 77, Nanos(3));
        let evicted = m.evict_flow(&flow(1), Nanos(10));
        assert_eq!(evicted.len(), 2);
        assert!(evicted.iter().all(|r| r.closed));
        assert_eq!(m.len(), 1, "other flows untouched");
    }

    #[test]
    fn idle_eviction_after_timeout() {
        let mut m = TrajectoryMemory::new(Nanos::from_secs(5));
        m.update(key(1, &[]), 10, Nanos::from_secs(1));
        m.update(key(2, &[]), 10, Nanos::from_secs(4));
        let evicted = m.evict_idle(Nanos::from_secs(7));
        assert_eq!(evicted.len(), 1, "only the 6s-idle record evicts");
        assert_eq!(evicted[0].flow, flow(1));
        assert!(!evicted[0].closed);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn idle_eviction_thins_a_sprayed_flow_from_any_position() {
        // Three paths of one flow in first-seen order; every subset of
        // them idle in turn (bit i of `mask` = path i idle): only the
        // first-seen path, only a later one, ..., all three.
        let paths = [[5u16], [6], [7]];
        for mask in 0u8..8 {
            let idle = |i: usize| mask & (1 << i) != 0;
            let mut m = TrajectoryMemory::new(Nanos::from_secs(5));
            for (i, p) in paths.iter().enumerate() {
                let last = if idle(i) { 1 } else { 4 };
                m.update(key(1, p), 10, Nanos::from_secs(last));
            }
            m.update(key(2, &[5]), 10, Nanos::from_secs(4));

            let out = m.evict_idle(Nanos::from_secs(7));
            let evicted: Vec<&[u16]> = out.iter().map(|r| &r.tags[..]).collect();
            let expect: Vec<&[u16]> = (0..3).filter(|&i| idle(i)).map(|i| &paths[i][..]).collect();
            assert_eq!(evicted, expect, "mask {mask:03b}");
            assert!(out.iter().all(|r| !r.closed && r.flow == flow(1)));
            assert_eq!(m.len(), 4 - out.len(), "mask {mask:03b}");
            assert!(!m.is_empty(), "flow 2 is live");

            // Survivors are found and bumped; evicted paths are new again.
            for (i, p) in paths.iter().enumerate() {
                let first_sight = m.update_borrowed(&key(1, p), 1, Nanos::from_secs(8));
                assert_eq!(first_sight, idle(i), "mask {mask:03b} path {i}");
                let expect = if idle(i) { (1, 1) } else { (11, 2) };
                assert_eq!(m.peek(&key(1, p)), Some(expect));
            }
            assert_eq!(m.len(), 4);

            // The FIN takes all three whatever their history, and the
            // flow starts over.
            assert_eq!(m.evict_flow(&flow(1), Nanos::from_secs(9)).len(), 3);
            assert_eq!(m.len(), 1);
            assert!(m.update_borrowed(&key(1, &[6]), 1, Nanos::from_secs(9)));
            assert_eq!(m.evict_flow(&flow(1), Nanos::from_secs(9)).len(), 1);
            assert_eq!(m.evict_flow(&flow(2), Nanos::from_secs(9)).len(), 1);
            assert!(m.is_empty());
            assert_eq!(m.len(), 0);
            assert!(m.evict_flow(&flow(2), Nanos::from_secs(9)).is_empty());
        }
    }

    #[test]
    fn eviction_preserves_counts_and_times() {
        let mut m = TrajectoryMemory::default();
        m.update(key(9, &[1, 2]), 100, Nanos(50));
        m.update(key(9, &[1, 2]), 200, Nanos(90));
        let r = m.evict_flow(&flow(9), Nanos(100)).remove(0);
        assert_eq!(r.bytes, 300);
        assert_eq!(r.pkts, 2);
        assert_eq!(r.stime, Nanos(50));
        assert_eq!(r.etime, Nanos(90));
        assert_eq!(r.tags, vec![1, 2]);
    }

    #[test]
    fn flush_drains_everything() {
        let mut m = TrajectoryMemory::default();
        for i in 0..10 {
            m.update(key(i, &[]), 1, Nanos(i as u64));
        }
        let all = m.flush(Nanos(100));
        assert_eq!(all.len(), 10);
        assert!(m.is_empty());
    }

    #[test]
    fn update_borrowed_reports_new_records() {
        let mut m = TrajectoryMemory::default();
        assert!(
            m.update_borrowed(&key(1, &[5]), 100, Nanos(1)),
            "first sight"
        );
        assert!(!m.update_borrowed(&key(1, &[5]), 50, Nanos(2)));
        assert!(m.update_borrowed(&key(1, &[6]), 10, Nanos(3)), "new path");
        assert_eq!(m.peek(&key(1, &[5])), Some((150, 2)));
        // Eviction then re-sight: the record is new again.
        m.evict_flow(&flow(1), Nanos(4));
        assert!(m.update_borrowed(&key(1, &[5]), 1, Nanos(5)));
    }

    #[test]
    fn update_counters() {
        let mut m = TrajectoryMemory::default();
        for _ in 0..5 {
            m.update(key(1, &[]), 1, Nanos(1));
        }
        assert_eq!(m.update_count(), 5);
        assert!(m.approx_bytes() > 0);
    }

    #[test]
    fn update_wire_matches_update_borrowed() {
        // `update_wire` takes tags outermost-first; `MemKey.tags` is push
        // order (innermost-first). The two must land on the same record.
        for tags in [
            vec![],
            vec![7],
            vec![3, 9],
            vec![1, 2, 3, 4],
            (0..11u16).collect::<Vec<_>>(), // spills past the inline slots
        ] {
            let mut a = TrajectoryMemory::default();
            let mut b = TrajectoryMemory::default();
            let push_order: Vec<u16> = tags.iter().rev().copied().collect();
            let k = MemKey {
                flow: flow(4),
                dscp_sample: Some(3),
                tags: push_order,
            };
            let first_a = a.update_borrowed(&k, 100, Nanos(1));
            let first_b = b.update_wire(&flow(4), Some(3), &tags, 100, Nanos(1));
            assert_eq!(first_a, first_b);
            assert!(!b.update_wire(&flow(4), Some(3), &tags, 50, Nanos(2)));
            assert_eq!(b.peek(&k), Some((150, 2)), "tags {tags:?}");
            assert_eq!(
                a.flush(Nanos(9)).first().map(|r| r.tags.clone()),
                b.flush(Nanos(9)).first().map(|r| r.tags.clone())
            );
        }
    }

    #[test]
    fn deep_tag_stacks_round_trip_through_spill() {
        let mut m = TrajectoryMemory::default();
        let deep: Vec<u16> = (100..100 + 2 * INLINE_TAGS as u16).collect();
        let k = key(1, &deep);
        assert!(m.update_borrowed(&k, 10, Nanos(1)));
        assert!(!m.update_borrowed(&k, 10, Nanos(2)));
        assert_eq!(m.peek(&k), Some((20, 2)));
        let keys: Vec<MemKey> = m.live_keys().collect();
        assert_eq!(keys, vec![k.clone()]);
        let r = m.evict_flow(&flow(1), Nanos(3)).remove(0);
        assert_eq!(r.tags, deep);
    }

    #[test]
    fn inline_keys_distinguish_truncated_prefixes() {
        // A stack of n tags must not collide with its own prefix padded
        // by zeroed slots, nor with a zero-valued tag in the next slot.
        let mut m = TrajectoryMemory::default();
        m.update(key(1, &[5]), 1, Nanos(1));
        m.update(key(1, &[5, 0]), 2, Nanos(1));
        m.update(key(1, &[5, 0, 0]), 3, Nanos(1));
        assert_eq!(m.len(), 3);
        assert_eq!(m.peek(&key(1, &[5])), Some((1, 1)));
        assert_eq!(m.peek(&key(1, &[5, 0])), Some((2, 1)));
        assert_eq!(m.peek(&key(1, &[5, 0, 0])), Some((3, 1)));
    }

    #[test]
    fn evictions_come_out_in_canonical_order() {
        let mut m = TrajectoryMemory::default();
        // Insert in scrambled order; eviction must sort by
        // (stime, flow, dscp_sample, tags) regardless.
        m.update(key(3, &[2]), 1, Nanos(30));
        m.update(key(1, &[9, 1]), 1, Nanos(10));
        m.update(key(2, &[]), 1, Nanos(10));
        m.update(key(1, &[0]), 1, Nanos(10));
        let out = m.flush(Nanos(99));
        let order: Vec<(Nanos, u16, Vec<u16>)> = out
            .iter()
            .map(|r| (r.stime, r.flow.src_port, r.tags.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                (Nanos(10), 1, vec![0]),
                (Nanos(10), 1, vec![9, 1]),
                (Nanos(10), 2, vec![]),
                (Nanos(30), 3, vec![2]),
            ]
        );
    }
}
